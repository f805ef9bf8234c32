"""Binary checkpoint format round-trips."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from salab.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from salab.exceptions import CheckpointError
from salab.models import (
    AttentionClassifier,
    HierarchicalTransformerClassifier,
    HierModelConfig,
    LocalModelConfig,
)


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "emb": rng.normal(0, 1, (7, 3)).astype(np.float32),
        "proj_w": rng.normal(0, 1, (3, 5)).astype(np.float32),
        "proj_b": np.zeros(5, dtype=np.float32),
    }
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params)
    again = load_checkpoint(path)
    assert list(again) == list(params)
    for k in params:
        np.testing.assert_array_equal(again[k], params[k])


def test_magic_and_layout(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)})
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    assert b"w" in raw
    # magic + (len, name, rank, 2 dims, 4 floats)
    assert len(raw) == 6 + 4 + 1 + 4 + 8 + 16


def test_failed_save_leaves_the_earlier_file_and_no_temporary(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)})
    before = path.read_bytes()
    with pytest.raises(ValueError):  # raised after the first record is written
        save_checkpoint(path, {"w": np.zeros((3, 3), np.float32), "bad": np.array(["nan?"])})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"NOTACKPT")
    with pytest.raises(ValueError, match="SALAB1"):
        load_checkpoint(path)


def test_deterministic_bytes(tmp_path):
    params = {"a": np.arange(6, dtype=np.float32).reshape(2, 3)}
    save_checkpoint(tmp_path / "1.ckpt", params)
    save_checkpoint(tmp_path / "2.ckpt", params)
    assert (tmp_path / "1.ckpt").read_bytes() == (tmp_path / "2.ckpt").read_bytes()


def test_every_truncation_raises_checkpoint_error(tmp_path):
    model = AttentionClassifier(LocalModelConfig(5, embed_dim=2, hidden=2), seed=0)
    full = tmp_path / "full.ckpt"
    model.save(full)
    raw = full.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for k in range(len(raw)):
        cut.write_bytes(raw[:k])
        with pytest.raises(CheckpointError):
            model.load(cut)
    model.load(full)


def test_mis_shaped_parameter_raises_checkpoint_error(tmp_path):
    model = AttentionClassifier(LocalModelConfig(5, embed_dim=2, hidden=2), seed=0)
    state = model.state_dict()
    state["emb"] = np.zeros((6, 2), dtype=np.float32)
    save_checkpoint(tmp_path / "m.ckpt", state)
    with pytest.raises(CheckpointError, match="emb"):
        model.load(tmp_path / "m.ckpt")


def test_a_repeated_parameter_record_raises_checkpoint_error(tmp_path):
    """A second `pred_b` record would silently replace the first; the error
    names the parameter and the byte its second record starts at."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"pred_b": np.ones(1, dtype=np.float32)})
    record = path.read_bytes()[len(MAGIC):]
    path.write_bytes(MAGIC + record + record)
    with pytest.raises(CheckpointError, match=f"'pred_b' at byte {len(MAGIC) + len(record)} repeats"):
        load_checkpoint(path)


@pytest.mark.parametrize("fault, message", [
    ("deeper", "parameter word1_wq is not one of this model's"),
    ("missing", "parameter pred_b missing"),
    ("reshaped", "parameter pred_b: shape"),
], ids=["deeper", "missing", "reshaped"])
def test_a_state_that_does_not_fit_raises_and_changes_no_weight(fault, message):
    """A 2-layer `tr` state names the first parameter a 1-layer model lacks;
    a state missing, or mis-shaping, the model's last parameter (pred_b)
    names it. Either way the model's weights stay as they were."""
    cfg = dict(vocab_size=5, embed_dim=2, hidden=2, max_words=3, max_sents=3)
    model = HierarchicalTransformerClassifier(HierModelConfig(**cfg), seed=1)
    layers = 2 if fault == "deeper" else 1
    state = HierarchicalTransformerClassifier(
        HierModelConfig(**cfg, word_layers=layers, sent_layers=layers), seed=0).state_dict()
    if fault == "missing":
        del state["pred_b"]
    elif fault == "reshaped":
        state["pred_b"] = np.zeros(3, dtype=np.float32)
    before = model.state_dict()
    with pytest.raises(CheckpointError, match=message):
        model.load_state_dict(state)
    for name, arr in model.state_dict().items():
        np.testing.assert_array_equal(arr, before[name])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=200))
def test_load_of_any_bytes_returns_params_or_raises_checkpoint_error(tmp_path, payload):
    path = tmp_path / "m.ckpt"
    path.write_bytes(MAGIC + payload)
    try:
        params = load_checkpoint(path)
    except CheckpointError:
        return
    assert all(isinstance(v, np.ndarray) and v.dtype == np.float32 for v in params.values())
