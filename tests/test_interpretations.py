import gc
import json
import math
import weakref

import numpy as np
import pytest

from discotrace import BackendSpec, build_interp_gen_prompt, deduplicate, generate_raw
from discotrace.errors import (
    EmbeddingDimensionMismatch, FixtureMiss, TransportError, UnparsableResponse,
)
from discotrace.gateway import append_fixture, request_digest, text_digest
from discotrace.interpretations import InterpretationSpace, build_space

from conftest import http_stub


def mock_embedder(path, vectors):
    """A mock embedding backend whose fixture at ``path`` maps the digest of each text of
    ``vectors`` to its vector's JSON, so ``deduplicate`` reads it as the CLI would."""
    backend = BackendSpec(kind="mock", name="embed", model="embed-model", fixture_path=str(path))
    for text, vector in vectors.items():
        append_fixture(path, text_digest(backend.model, text), json.dumps(vector))
    return backend


#: An embedder that is never asked: ``deduplicate`` embeds nothing for an empty pool.
UNUSED_EMBEDDER = BackendSpec(kind="mock", name="embed", model="embed-model")


def hash_embedder(tmp_path, texts):
    """Injective up to string equality: equal strings get identical unit
    vectors, distinct strings get (almost surely) non-parallel vectors."""
    vectors = {}
    for text in texts:
        rng = np.random.default_rng(abs(hash(text)) % (2**32))
        v = rng.normal(size=16)
        vectors[text] = (v / np.linalg.norm(v)).tolist()
    return mock_embedder(tmp_path / "hash.jsonl", vectors)


def orthogonal_embedder(tmp_path, texts):
    vectors = {}
    for i, text in enumerate(texts):
        vectors[text] = [0.0] * len(texts)
        vectors[text][i] = 1.0
    return mock_embedder(tmp_path / "orthogonal.jsonl", vectors)


def make_gen_backend(tmp_path, name, question, context, response):
    fixture = tmp_path / f"{name}.jsonl"
    backend = BackendSpec(kind="mock", name=name, model=f"{name}-model",
                          fixture_path=str(fixture))
    request = build_interp_gen_prompt(question, context, backend.model)
    append_fixture(fixture, request_digest(request), response)
    return backend


def test_generate_raw_all_none(tmp_path):
    backends = [
        make_gen_backend(tmp_path, "a", "Q?", "ctx", "NONE"),
        make_gen_backend(tmp_path, "b", "Q?", "ctx", "NONE"),
    ]
    pooled, warnings = generate_raw("Q?", "ctx", backends)
    assert pooled == []
    assert warnings == []


def test_generate_raw_pooling_order(tmp_path):
    backends = [
        make_gen_backend(tmp_path, "a", "Q?", "ctx", "1. A1?\n2. A2?"),
        make_gen_backend(tmp_path, "b", "Q?", "ctx", "1. B1?\n2. B2?\n3. B3?"),
    ]
    pooled, warnings = generate_raw("Q?", "ctx", backends)
    assert pooled == [
        ("a", "A1?"), ("a", "A2?"),
        ("b", "B1?"), ("b", "B2?"), ("b", "B3?"),
    ]
    assert warnings == []


def test_generate_raw_partial_failure(tmp_path, monkeypatch):
    good = make_gen_backend(tmp_path, "b", "Q?", "ctx", "1. Only?")
    bad = BackendSpec(kind="live", name="a", model="a-model",
                      endpoint="http://127.0.0.1:1", retry_limit=0)
    monkeypatch.setattr("discotrace.gateway.time.sleep", lambda s: None)
    pooled, warnings = generate_raw("Q?", "ctx", [bad, good])
    assert pooled == [("b", "Only?")]
    assert len(warnings) == 1 and "a" in warnings[0]


def test_generate_raw_all_fail(tmp_path, monkeypatch):
    bad = BackendSpec(kind="live", name="a", model="a-model",
                      endpoint="http://127.0.0.1:1", retry_limit=0)
    monkeypatch.setattr("discotrace.gateway.time.sleep", lambda s: None)
    with pytest.raises(TransportError):
        generate_raw("Q?", "ctx", [bad])


def test_dedup_exact_duplicates_merge_sources(tmp_path):
    raw = [("a", "Same text?"), ("b", "Same text?")]
    space = deduplicate(raw, hash_embedder(tmp_path, ["Same text?"]), threshold=0.99)
    assert len(space) == 1
    assert space.members[0].sources == {"a", "b"}
    assert space.members[0].id == "id_1"


def test_dedup_orthogonal_all_kept(tmp_path):
    raw = [("a", "One?"), ("a", "Two?"), ("b", "Three?")]
    space = deduplicate(raw, orthogonal_embedder(tmp_path, ["One?", "Two?", "Three?"]),
                        threshold=0.5)
    assert len(space) == 3
    assert [m.id for m in space.members] == ["id_1", "id_2", "id_3"]


def test_dedup_cosine_merge_to_first(tmp_path):
    # Hand-computed 2-d vectors: cos(v1, v2) = 0.9 exactly.
    v1 = [1.0, 0.0]
    v2 = [0.9, math.sqrt(1 - 0.81)]
    embedder = mock_embedder(tmp_path / "embed.jsonl", {"first": v1, "second": v2})

    raw = [("a", "first"), ("b", "second")]
    merged = deduplicate(raw, embedder, threshold=0.85)
    assert len(merged) == 1
    assert merged.members[0].text == "first"
    assert merged.members[0].sources == {"a", "b"}
    kept = deduplicate(raw, embedder, threshold=0.95)
    assert len(kept) == 2


def test_dedup_matches_exact_string_dedup(tmp_path):
    raw = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "z"), ("a", "y")]
    space = deduplicate(raw, hash_embedder(tmp_path, "xyz"), threshold=1.0 - 1e-12)
    assert [m.text for m in space.members] == ["x", "y", "z"]


def test_dedup_output_size_and_determinism(tmp_path):
    raw = [("a", f"t{i}") for i in range(10)]
    embedder = hash_embedder(tmp_path, [text for _, text in raw])
    first = deduplicate(raw, embedder, threshold=0.8)
    second = deduplicate(raw, embedder, threshold=0.8)
    assert len(first) <= len(raw)
    assert sum(len(m.sources) for m in first.members) <= len(raw)
    assert [(m.id, m.text) for m in first.members] == [(m.id, m.text) for m in second.members]


def test_dedup_threshold_validation():
    with pytest.raises(ValueError):
        deduplicate([], UNUSED_EMBEDDER, threshold=0.0)
    with pytest.raises(ValueError):
        deduplicate([], UNUSED_EMBEDDER, threshold=1.5)


def test_dedup_empty_pool():
    space = deduplicate([], UNUSED_EMBEDDER, threshold=0.85, question_id="q1")
    assert len(space) == 0
    assert space.question_id == "q1"


def test_dedup_ragged_embeddings(tmp_path):
    ragged = mock_embedder(tmp_path / "embed.jsonl", {"x": [1.0, 0.0], "y": [1.0, 0.0, 0.0]})
    with pytest.raises(EmbeddingDimensionMismatch, match=r"mixed embedding dimensions \[2, 3\]"):
        deduplicate([("a", "x"), ("a", "y")], ragged, threshold=0.5)


# A reply with a vector short or one extra can only come from a live embedder:
# tests/test_gateway.py checks that embed rejects it.
@pytest.mark.parametrize("embeddings", [
    [1.0, 2.0],                        # scalars
    [[[1.0], [0.0]], [[1.0], [0.0]]],  # matrices
    ["ab", "cd"],                      # strings
    [[1.0, None], [1.0, 0.0]],         # a hole
])
def test_dedup_rejects_embeddings_that_are_not_one_vector_per_text(tmp_path, embeddings):
    embedder = mock_embedder(tmp_path / "embed.jsonl", dict(zip("xy", embeddings)))
    with pytest.raises(EmbeddingDimensionMismatch,
                       match="embedding reply is not a list of number vectors"):
        deduplicate([("a", "x"), ("a", "y")], embedder, threshold=0.5)


def test_dedup_never_merges_a_zero_vector(tmp_path):
    vectors = {"zero": [0.0, 0.0], "again": [0.0, 0.0], "x": [1.0, 0.0], "x too": [1.0, 0.0]}
    raw = [("a", text) for text in vectors]
    space = deduplicate(raw, mock_embedder(tmp_path / "embed.jsonl", vectors), threshold=0.5)
    assert [m.text for m in space.members] == ["zero", "again", "x"]


def test_dedup_merges_identical_vectors_at_threshold_one(tmp_path):
    rng = np.random.default_rng(11)
    vectors = {f"t{i}": v for i, v in enumerate(rng.normal(size=(20, 1536)).tolist())}
    raw = [(source, f"t{i}") for i in range(20) for source in ("a", "b")]
    space = deduplicate(raw, mock_embedder(tmp_path / "embed.jsonl", vectors), threshold=1.0)
    assert [m.text for m in space.members] == [f"t{i}" for i in range(20)]
    assert all(m.sources == {"a", "b"} for m in space.members)


def numpy_clusters(vectors, threshold):
    """Each candidate's member index under the greedy rule, with the cosine taken as the dot
    product of unit vectors (a zero vector's "unit" vector is itself)."""
    matrix = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms == 0] = 1.0
    unit = matrix / norms[:, None]
    representatives, clusters = [], []
    for vector in unit:
        cosines = [float(vector @ rep) for rep in representatives]
        first = next((k for k, c in enumerate(cosines) if c >= threshold), None)
        if first is None:
            first = len(representatives)
            representatives.append(vector)
        clusters.append(first)
    return clusters, unit @ unit.T


@pytest.mark.parametrize("dims", [8, 64, 1536])
def test_dedup_clusters_as_the_numpy_dot_product_does(tmp_path, dims):
    rng = np.random.default_rng(dims)
    checked = merged = 0
    for draw in range(40):
        bases = rng.normal(size=(4, dims))
        noise = rng.choice([0.05, 0.3, 1.0])
        vectors = [(bases[rng.integers(4)] + noise * rng.normal(size=dims)) * rng.uniform(0.5, 2)
                   for _ in range(12)]
        threshold = rng.uniform(0.3, 1.0)
        expected, cosines = numpy_clusters(vectors, threshold)
        if np.any(np.abs(cosines - threshold) < 1e-12):
            continue  # a decision this close to the threshold is rounding's to make
        raw = [(f"c{i}", f"t{i}") for i in range(len(vectors))]
        table = {f"t{i}": v.tolist() for i, v in enumerate(vectors)}
        embedder = mock_embedder(tmp_path / f"embed{draw}.jsonl", table)
        space = deduplicate(raw, embedder, threshold)
        member_of = {source: k for k, m in enumerate(space.members) for source in m.sources}
        assert [member_of[f"c{i}"] for i in range(len(vectors))] == expected
        checked += 1
        merged += len(space) < len(vectors)
    assert checked >= 30 and 0 < merged < checked


def test_space_round_trip(tmp_path):
    space = deduplicate([("a", "x"), ("b", "y")], orthogonal_embedder(tmp_path, "xy"), 0.5,
                        question_id="q9")
    doc = space.to_dict()
    again = InterpretationSpace.from_dict(doc)
    assert again.question_id == "q9"
    assert again.id_to_text() == space.id_to_text()
    assert [m.sources for m in again.members] == [m.sources for m in space.members]


def test_build_space(tmp_path):
    backends = [make_gen_backend(tmp_path, "a", "Q?", "", "1. X?\n2. X?")]
    space, warnings = build_space("q1", "Q?", "", backends, hash_embedder(tmp_path, ["X?"]),
                                  0.99)
    assert space.question_id == "q1"
    assert len(space) == 1
    assert warnings == []


def test_generate_raw_fixture_miss_stops_the_pool(tmp_path):
    good = make_gen_backend(tmp_path, "b", "Q?", "ctx", "1. Only?")
    missing = BackendSpec(kind="mock", name="a", model="a-model",
                          fixture_path=str(tmp_path / "b.jsonl"))
    with pytest.raises(FixtureMiss):
        generate_raw("Q?", "ctx", [missing, good])


def test_generate_raw_every_reply_unparsable_raises_the_last_message(tmp_path):
    backends = [
        make_gen_backend(tmp_path, "a", "Q?", "ctx", "no list"),
        make_gen_backend(tmp_path, "b", "Q?", "ctx", "no list either"),
    ]
    with pytest.raises(UnparsableResponse, match="neither NONE nor a numbered list"):
        generate_raw("Q?", "ctx", backends)
    pooled, warnings = generate_raw("Q?", "ctx", [backends[0], make_gen_backend(
        tmp_path, "c", "Q?", "ctx", "1. C?")])
    assert pooled == [("c", "C?")]
    assert warnings == ["generator a: neither NONE nor a numbered list"]


def test_generate_raw_keeps_no_failed_call_in_a_reference_cycle(tmp_path):
    # A kept failure's traceback would hold the failed call's frames, and so its backend.
    def run():
        failing = make_gen_backend(tmp_path, "a", "Q?", "ctx", "no list")
        backends = [failing, make_gen_backend(tmp_path, "b", "Q?", "ctx", "1. B?")]
        return weakref.ref(failing), generate_raw("Q?", "ctx", backends)

    gc.disable()
    try:
        alive, (pooled, warnings) = run()
        assert alive() is None
    finally:
        gc.enable()
    assert pooled == [("b", "B?")]
    assert warnings == ["generator a: neither NONE nor a numbered list"]


def test_generate_raw_asks_a_live_generator_again():
    replies = iter(["no list", "1. Live?"])
    with http_stub(lambda body: (200, {"choices": [{"message": {"content": next(replies)}}]})
                   ) as (endpoint, stats):
        backend = BackendSpec(kind="live", name="a", endpoint=endpoint, retry_limit=1)
        pooled, warnings = generate_raw("Q?", "ctx", [backend])
    assert stats.posts == 2
    assert pooled == [("a", "Live?")] and warnings == []
