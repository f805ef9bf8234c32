"""Library refusals that no command reaches with valid settings: each raises its typed error."""

import numpy as np
import pytest

from salab import data as dm
from salab.attention import Packing, scaled_dot_attention
from salab.autodiff import Tensor, bce_with_logits
from salab.evaluation import PredictionRecord, brier, calibration_curve, directive_attention_mass
from salab.exceptions import ShapeError, UndefinedMetricError
from salab.models import AttentionClassifier, LocalModelConfig
from salab.simplex import MappingKind
from salab.training import train_model

DOCS = [dm.PatientDocument("a", [["w1", "w2"], ["w2"]], 1), dm.PatientDocument("b", [["w1"]], 0)]
VOCAB = dm.build_vocab([["w1", "w2"]], min_freq=1)


def tiny_model():
    return AttentionClassifier(LocalModelConfig(len(VOCAB), embed_dim=4, hidden=4, dropout_rate=0.0), seed=0)


def attention_on_fewer_units():
    q = Tensor(np.zeros((3, 4)))
    scaled_dot_attention(q, q, q, Packing(np.array([[True, True]])), MappingKind.parse("softmax"))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Tensor(np.ones(2), requires_grad=True).backward(), ValueError, "requires a scalar output"),
    (lambda: Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3))), ShapeError, r"matmul mismatch: \(2, 3\) @ \(2, 3\)"),
    (lambda: bce_with_logits(Tensor(np.zeros(3)), np.zeros(2)), ShapeError, r"labels \(2,\) vs logits \(3,\)"),
    (attention_on_fewer_units, ShapeError, r"attention rows: q \(3, 4\) for 2 real units"),
    (lambda: dm.build_vocab([["w1"]], min_freq=0), ValueError, "min_freq must be >= 1"),
    (lambda: dm.split_dataset(DOCS, (0.5, 0.5, 0.5)), ValueError, "split proportions must sum to 1"),
    (lambda: dm.pad_and_batch(DOCS, VOCAB, 5, 3, 0), ValueError, "batch_size must be >= 1"),
    (lambda: PredictionRecord("a", 0.5, 2), ValueError, "label must be 0 or 1: 2"),
    (lambda: brier([]), UndefinedMetricError, "Brier score needs at least one record"),
    (lambda: calibration_curve([PredictionRecord("a", 0.5, 1)], n_bins=1), ValueError, "need at least 2 bins"),
    (lambda: directive_attention_mass(tiny_model(), DOCS, VOCAB, {"dnr"}), UndefinedMetricError,
     "no sentences containing directive tokens"),
    (lambda: train_model(tiny_model(), DOCS, DOCS, VOCAB, epochs=0), ValueError, "epochs must be >= 1, got 0"),
    (lambda: LocalModelConfig(0), ValueError, "vocab_size must be >= 1, got 0"),
    (lambda: LocalModelConfig(-1), ValueError, "vocab_size must be >= 1, got -1"),
], ids=["backward-of-a-vector", "matmul-mismatch", "bce-label-shape", "attention-rows", "min-freq",
        "split-proportions", "batch-sizes", "record-label", "brier-of-none", "one-bin", "no-directive-sentence",
        "no-epochs", "empty-vocabulary", "negative-vocabulary"])
def test_a_refused_input_raises_its_type(call, error, message):
    with pytest.raises(error, match=message):
        call()
