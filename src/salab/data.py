"""Vocabulary, batching, dataset files, and the synthetic directive corpus.

The corpus generator plants a handful of directive tokens ("dnr", "dni",
"cmo") whose presence is strongly class-conditional, over Zipf-distributed
filler tokens, so models must learn to find rare informative words.
Dataset files are JSON Lines with token *strings* so vocabularies can be
rebuilt from the file alone.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .exceptions import DatasetError
from .rng import StreamDecoder, derive_rng

log = logging.getLogger(__name__)

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")  # the only code points UTF-8 cannot encode


@dataclass
class PatientDocument:
    """One classification unit: sentences of tokens plus a binary label."""

    id: str
    sentences: list[list[str]]
    label: int


class Vocabulary:
    """token <-> id map with reserved ids 0 (pad) and 1 (unknown).  No token
    encodes to 0, so a `<pad>` in a document reads as unknown."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN] + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token) if i != PAD_ID}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def save(self, path) -> None:
        Path(path).write_text(
            "\n".join(self.id_to_token[2:]) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """The vocabulary `save` wrote; a token on two lines, or `<pad>` or
        `<unk>` on one, would shift every later id, so it raises ValueError
        naming "<path>:<line>"."""
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 ({e.reason} at byte {e.start})") from None
        first: dict[str, int] = {}
        for n, t in enumerate(lines, 1):
            if t in (PAD_TOKEN, UNK_TOKEN):
                raise ValueError(f"{path}:{n}: {t!r} is a reserved token, not a vocabulary entry")
            if t and first.setdefault(t, n) != n:
                raise ValueError(f"{path}:{n}: {t!r} repeats the token of line {first[t]}")
        return cls([t for t in lines if t])


def build_vocab(token_streams, min_freq: int = 5) -> Vocabulary:
    """Count tokens and keep those at or above min_freq, except <pad> and <unk>.

    Ids are assigned by (frequency desc, token asc) so rebuilding from
    the same corpus is deterministic.
    """
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts = Counter(chain.from_iterable(token_streams))
    if not counts:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_freq and t not in (PAD_TOKEN, UNK_TOKEN)),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(kept)


# ---------------------------------------------------------------------------
# synthetic corpus

DIRECTIVE_TOKENS = ("dnr", "dni", "cmo")  # planted by the generator; heatmap's default filter


@dataclass
class SyntheticCorpusConfig:
    n_documents: int = 5000
    vocab_size: int = 200
    positive_rate: float = 0.132
    p_directive_given_positive: float = 0.9
    p_directive_given_negative: float = 0.05
    min_sentences: int = 3
    max_sentences: int = 6
    min_words: int = 4
    max_words: int = 10
    zipf_exponent: float = 1.1
    seed: int = 0

    def __post_init__(self):
        low = [f for f in ("n_documents", "vocab_size", "min_sentences", "min_words")
               if getattr(self, f) < 1]
        if low:
            raise ValueError(f"{', '.join(low)} must be >= 1")
        for lo, hi in (("min_sentences", "max_sentences"), ("min_words", "max_words")):
            if getattr(self, lo) > getattr(self, hi):
                raise ValueError(f"{lo} {getattr(self, lo)} exceeds {hi} {getattr(self, hi)}")
            # numpy draws a count over 2**32 values or more 64 bits at a time, and no such
            # sentence or document would fit in memory
            if getattr(self, hi) >= 2**32:
                raise ValueError(f"{hi} must be < 2**32, got {getattr(self, hi)}")
        for p in (
            self.positive_rate,
            self.p_directive_given_positive,
            self.p_directive_given_negative,
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of range: {p}")
        if not 0.0 < self.positive_rate < 1.0:
            raise ValueError("positive_rate must lie in (0, 1)")


_CHUNK_DOCS, _CHUNK_WORDS = 256, 2**22  # documents decoded in lockstep; their words' budget


def generate_synthetic_corpus(cfg: SyntheticCorpusConfig) -> list[PatientDocument]:
    """Draw labels, then plant one directive token per selected document.

    Document d is drawn from its own stream derive_rng(seed, "corpus", d), so the first k
    documents of any longer corpus are the k-document corpus.  Its draws, in order: the label's
    random(), integers(min_sentences, max_sentences + 1), per sentence integers(min_words,
    max_words + 1) and that many random() for Zipf ranks, the directive test's random(), then
    the token, sentence and position.  Documents are decoded from their raw Philox words in
    chunks by rng.StreamDecoder, byte-identical to making those calls on derive_rng's Generator.
    """
    ranks = np.arange(1, cfg.vocab_size + 1, dtype=np.float64)
    filler_probs = ranks ** -cfg.zipf_exponent
    cdf = (filler_probs / filler_probs.sum()).cumsum()
    if not cdf[-1] > 0:
        raise ValueError(f"no Zipf law over {cfg.vocab_size} tokens at zipf {cfg.zipf_exponent}")
    cdf /= cdf[-1]  # the CDF Generator.choice(p=filler_probs) builds on every call
    # an object array, so one fancy index and .tolist() turn a chunk's ranks into its tokens
    filler_tokens = np.array([f"w{i}" for i in range(cfg.vocab_size)], dtype=object)
    # the most words a document takes unless a draw is rejected, at one word or less per draw:
    # label, sentence count, directive test, token, sentence, position, and per sentence its
    # word count and words
    words = 6 + cfg.max_sentences * (1 + cfg.max_words)
    chunk = max(1, min(_CHUNK_DOCS, _CHUNK_WORDS // words))
    docs: list[PatientDocument] = []
    for start in range(0, cfg.n_documents, chunk):
        docs += _corpus_chunk(cfg, start, min(start + chunk, cfg.n_documents), words, cdf,
                              filler_tokens)
    return docs


def _corpus_chunk(cfg, start, stop, words, cdf, filler_tokens) -> list[PatientDocument]:
    """Documents start..stop-1 of generate_synthetic_corpus, decoded together."""
    rng = StreamDecoder(cfg.seed, "corpus", start, stop, words)
    rows = np.arange(stop - start)
    label = rng.random(rows) < cfg.positive_rate
    n_sent = rng.integers(cfg.min_sentences, cfg.max_sentences + 1, rows)
    first = np.cumsum(n_sent) - n_sent  # document i's sentences are slots first[i]...
    n_words = np.empty(n_sent.sum(), np.int64)
    word_at = np.empty_like(n_words)
    for j in range(int(n_sent.max())):  # sentence j of every document that has one
        has = np.flatnonzero(n_sent > j)
        slot = first[has] + j
        n_words[slot] = k = rng.integers(cfg.min_words, cfg.max_words + 1, has)
        word_at[slot] = rng.advance(has, k)
    u = rng.doubles(np.repeat(rows, n_sent), word_at, n_words)
    tokens = filler_tokens[cdf.searchsorted(u, side="right")].tolist()
    ends = np.cumsum(n_words).tolist()
    sentences = [tokens[a:b] for a, b in zip([0, *ends], ends)]

    p_dir = np.where(label, cfg.p_directive_given_positive, cfg.p_directive_given_negative)
    planted = np.flatnonzero(rng.random(rows) < p_dir)
    token = rng.integers(0, len(DIRECTIVE_TOKENS), planted)
    slot = first[planted] + rng.integers(0, n_sent[planted], planted)
    at = rng.integers(0, n_words[slot] + 1, planted)
    for s, a, t in zip(slot.tolist(), at.tolist(), token.tolist()):
        sentences[s].insert(a, DIRECTIVE_TOKENS[t])
    first, n_sent = first.tolist(), n_sent.tolist()
    return [
        PatientDocument(id=f"doc{start + i:06d}", sentences=sentences[f:f + n], label=y)
        for i, (f, n, y) in enumerate(zip(first, n_sent, label.astype(int).tolist()))
    ]


# ---------------------------------------------------------------------------
# file I/O and splits

def write_jsonl(path, docs: list[PatientDocument]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc in docs:
            fh.write(
                json.dumps(
                    {"id": doc.id, "label": doc.label, "sentences": doc.sentences},
                    ensure_ascii=False,
                )
                + "\n"
            )


def _parse_document(line: str) -> PatientDocument:
    """One JSONL line as a document; DatasetError names what is wrong."""
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as e:  # JSONDecodeError, an over-long number, deep nesting
        raise DatasetError(f"not valid JSON ({getattr(e, 'msg', e)})") from None
    if not isinstance(rec, dict):
        raise DatasetError("not a JSON object")
    if "id" not in rec:
        raise DatasetError('no "id"')
    label = rec.get("label")
    if isinstance(label, bool) or label not in (0, 1):
        raise DatasetError(f'"label" must be 0 or 1, got {label!r}')
    sentences = rec.get("sentences")
    if not (isinstance(sentences, list)
            and all(isinstance(s, list) and all(isinstance(t, str) for t in s)
                    for s in sentences)):
        raise DatasetError('"sentences" must be a list of lists of strings')
    if bad := [t for s in sentences for t in s if t.splitlines() != [t]]:  # one line of vocab.txt each
        raise DatasetError(f"token {bad[0]!r} is empty or holds a line break")
    doc_id = str(rec["id"])
    for kind, texts in (("id", [doc_id]), ("token", [t for s in sentences for t in s])):
        if bad := [t for t in texts if _LONE_SURROGATE.search(t)]:  # vocab.txt and file names are UTF-8
            raise DatasetError(f"{kind} {bad[0]!r} holds a lone surrogate, which UTF-8 cannot encode")
    return PatientDocument(id=doc_id, sentences=sentences, label=int(label))


def read_jsonl(path) -> list[PatientDocument]:
    """Documents of a JSON Lines file; one object per line:
    {"id": ..., "label": 0 | 1, "sentences": [[token, ...], ...]}.

    Raises DatasetError "<path>:<line>: <reason>" for a malformed line.
    """
    docs = []
    with open(path, "rb") as fh:  # lines end in "\n", as write_jsonl writes them
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    docs.append(_parse_document(line))
            except (UnicodeDecodeError, DatasetError) as e:
                raise DatasetError(f"{path}:{lineno}: {e}") from None
    return docs


@dataclass
class DatasetSplit:
    train: list[PatientDocument]
    validation: list[PatientDocument]
    test: list[PatientDocument]


def split_dataset(
    docs: list[PatientDocument],
    proportions: tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: int = 0,
) -> DatasetSplit:
    if abs(sum(proportions) - 1.0) > 1e-9:
        raise ValueError("split proportions must sum to 1")
    order = derive_rng(seed, "split").permutation(len(docs))
    shuffled = [docs[i] for i in order]
    n = len(docs)
    n_train = int(round(proportions[0] * n))
    n_val = int(round(proportions[1] * n))
    return DatasetSplit(
        train=shuffled[:n_train],
        validation=shuffled[n_train : n_train + n_val],
        test=shuffled[n_train + n_val :],
    )


# ---------------------------------------------------------------------------
# batching

@dataclass
class Batch:
    # T and W are the batch's own most sentences and longest sentence
    token_ids: np.ndarray  # [B, T, W] int64, 0 = pad
    word_mask: np.ndarray  # [B, T, W] bool, token_ids != 0
    sentence_mask: np.ndarray  # [B, T] bool, word_mask.any(-1)
    labels: np.ndarray  # [B] float64
    doc_ids: list[str] = field(default_factory=list)


def kept_sentences(doc: PatientDocument, max_words: int, max_sents: int) -> list[list[str]]:
    """The sentences a model reads of `doc`: its earliest `max_sents`, each
    cut to its earliest `max_words` tokens, with empty ones dropped."""
    return [cut for sent in doc.sentences[:max_sents] if (cut := sent[:max_words])]


def pad_and_batch(
    docs: list[PatientDocument],
    vocab: Vocabulary,
    max_words: int,
    max_sents: int,
    batch_size: int,
) -> list[Batch]:
    """Consecutive batches of `batch_size` documents, each padded to its
    own longest document and sentence; `max_words` and `max_sents` only
    truncate.

    A batch is built from its sentence lengths: the [B, T] length grid
    gives both masks, and the ids go into the word mask's slots in one
    store; a batch of one sentence is its ids, with no slot to mask.  No
    token encodes to PAD_ID, so `word_mask` is `token_ids != 0`."""
    if min(max_words, max_sents, batch_size) < 1:
        raise ValueError("max_words, max_sents, batch_size must be >= 1")
    kept: list[tuple[PatientDocument, list[list[str]]]] = []
    for doc in docs:
        if sentences := kept_sentences(doc, max_words, max_sents):
            kept.append((doc, sentences))
        else:
            log.warning("document %s empty after truncation; skipped", doc.id)

    encode = vocab.token_to_id.get
    batches = []
    for start in range(0, len(kept), batch_size):
        chunk = kept[start : start + batch_size]
        if len(chunk) == 1 and len(chunk[0][1]) == 1:
            # one sentence, as a filtered map read-out often holds: no padding slot to mask
            ids = np.array([[[encode(t, UNK_ID) for t in chunk[0][1][0]]]], dtype=np.int64)
            word_mask, sentence_mask = ids.astype(bool), np.array([[True]])
        else:
            lens = [[len(s) for s in sentences] for _, sentences in chunk]
            n_sents, n_words = max(map(len, lens)), max(map(max, lens))
            lens = np.array([n + [0] * (n_sents - len(n)) for n in lens])  # [B, T]
            word_mask = np.arange(n_words) < lens[..., None]
            ids = np.zeros(word_mask.shape, dtype=np.int64)
            ids[word_mask] = [encode(t, UNK_ID) for _, sentences in chunk for s in sentences for t in s]
            sentence_mask = lens.astype(bool)  # lens > 0, in one cast
        labels = np.array([doc.label for doc, _ in chunk], dtype=np.float64)
        batches.append(Batch(ids, word_mask, sentence_mask, labels, [d.id for d, _ in chunk]))
    return batches
