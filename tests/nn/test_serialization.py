"""Tests for the binary state-dict codecs (self-describing + schema-split)."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.nn import Linear, Sequential, Tanh
from repro.nn.serialization import (
    StateSchema,
    bytes_to_parameters,
    deserialize_state_dict,
    deserialize_state_row,
    parameters_to_bytes,
    serialize_state_dict,
    state_dict_num_bytes,
    state_dict_num_parameters,
)


@pytest.fixture
def state(rng):
    model = Sequential(Linear(3, 5, rng=rng), Tanh(), Linear(5, 2, rng=rng))
    return model.state_dict()


class TestSelfDescribingCodec:
    def test_roundtrip_preserves_keys_and_values(self, state):
        decoded = deserialize_state_dict(serialize_state_dict(state))
        assert list(decoded) == list(state)
        for key in state:
            assert np.array_equal(decoded[key], state[key])
            assert decoded[key].dtype == np.float32

    def test_roundtrip_scalarless_shapes(self):
        state = OrderedDict([("w", np.zeros((2, 3, 4), dtype=np.float32))])
        decoded = deserialize_state_dict(serialize_state_dict(state))
        assert decoded["w"].shape == (2, 3, 4)

    def test_empty_state_dict(self):
        decoded = deserialize_state_dict(serialize_state_dict(OrderedDict()))
        assert decoded == OrderedDict()

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError):
            deserialize_state_dict(b"XXXX" + b"\x00" * 16)

    def test_truncated_blob_rejected(self, state):
        blob = serialize_state_dict(state)
        with pytest.raises(SerializationError):
            deserialize_state_dict(blob[: len(blob) // 2])

    def test_trailing_bytes_rejected(self, state):
        blob = serialize_state_dict(state)
        with pytest.raises(SerializationError):
            deserialize_state_dict(blob + b"\x00\x00")

    def test_blob_is_larger_than_raw_params(self, state):
        # The self-describing format embeds names/shapes — the O1 overhead
        # MMlib-base pays per model.
        assert len(serialize_state_dict(state)) > state_dict_num_bytes(state)

    def test_row_decoder_gives_one_read_only_row(self, state):
        blob = serialize_state_dict(state)
        decoded = deserialize_state_row(blob)
        assert decoded.schema == StateSchema.from_state_dict(state)
        assert not decoded.row.flags.writeable
        for key in state:
            assert np.array_equal(decoded[key], state[key])
        for bad in (blob[: len(blob) // 2], blob + b"\x00\x00", b"XXXX" + blob[4:]):
            with pytest.raises(SerializationError):
                deserialize_state_row(bad)

    def test_unicode_layer_names(self):
        state = OrderedDict([("schicht.gewichte", np.ones(3, dtype=np.float32))])
        decoded = deserialize_state_dict(serialize_state_dict(state))
        assert list(decoded) == ["schicht.gewichte"]


class TestStateSchema:
    def test_from_state_dict_captures_order_and_shapes(self, state):
        schema = StateSchema.from_state_dict(state)
        assert schema.layer_names() == list(state)
        assert schema.entries[0][1] == (5, 3)

    def test_num_parameters_and_bytes(self, state):
        schema = StateSchema.from_state_dict(state)
        assert schema.num_parameters == state_dict_num_parameters(state)
        assert schema.num_bytes == state_dict_num_bytes(state)

    def test_json_roundtrip(self, state):
        schema = StateSchema.from_state_dict(state)
        assert StateSchema.from_json(schema.to_json()) == schema

    def test_from_json_rejects_malformed(self):
        with pytest.raises(SerializationError):
            StateSchema.from_json([["name", "not-a-shape"]])


class TestSchemaSplitCodec:
    def test_roundtrip_single_model(self, state):
        schema = StateSchema.from_state_dict(state)
        raw = parameters_to_bytes(state)
        assert len(raw) == schema.num_bytes
        decoded = bytes_to_parameters(raw, schema)
        for key in state:
            assert np.array_equal(decoded[key], state[key])

    def test_offset_addresses_models_in_concatenated_stream(self, rng):
        models = [
            Sequential(Linear(2, 3, rng=np.random.default_rng(i))) for i in range(4)
        ]
        states = [m.state_dict() for m in models]
        schema = StateSchema.from_state_dict(states[0])
        stream = b"".join(parameters_to_bytes(s) for s in states)
        for index, original in enumerate(states):
            decoded = bytes_to_parameters(
                stream, schema, offset=index * schema.num_bytes
            )
            for key in original:
                assert np.array_equal(decoded[key], original[key])

    def test_short_stream_rejected(self, state):
        schema = StateSchema.from_state_dict(state)
        raw = parameters_to_bytes(state)
        with pytest.raises(SerializationError):
            bytes_to_parameters(raw[:-4], schema)

    def test_out_of_range_offset_rejected(self, state):
        schema = StateSchema.from_state_dict(state)
        raw = parameters_to_bytes(state)
        with pytest.raises(SerializationError):
            bytes_to_parameters(raw, schema, offset=8)


class TestCounting:
    def test_num_parameters(self, state):
        expected = (3 * 5 + 5) + (5 * 2 + 2)
        assert state_dict_num_parameters(state) == expected

    def test_num_bytes_is_4x_parameters(self, state):
        assert state_dict_num_bytes(state) == 4 * state_dict_num_parameters(state)
