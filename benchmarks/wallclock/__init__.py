"""Wall-clock ledger: end-to-end timings plus per-layer attribution.

Four seeded, closed-loop, single-client workloads drive a durable
archive in a temp dir and check every recovered byte against an
in-memory oracle.  End-to-end numbers come from an untraced pass; a
traced pass wraps each layer's public functions *from this directory*
(nothing under ``src/`` is edited) to give per-layer self time and
counts.  See ``README.md`` for the metric catalogue and run rules.
"""
