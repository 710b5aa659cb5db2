import contextlib
import gc
import json

import pytest

from discotrace import (
    RawComment,
    RawPost,
    filter_comments,
    filter_posts,
    read_corpus,
    sample_questions,
    write_corpus,
)
from discotrace.corpus import FILTER_RULES, SCHEMA_VERSION
from discotrace.errors import InsufficientPosts, MalformedLine, SchemaVersionMismatch, UnknownCommunity

from conftest import deep_tree_json


def post(title, score=10, profanity=0.0, community="AskHistorians", post_id="p1", comments=()):
    return RawPost(
        post_id=post_id, title=title, score=score, created_at="2024-01-01",
        community=community, profanity_prob=profanity, comments=list(comments),
    )


GOOD_TITLE = "Why did the Roman Empire split in two?"


def test_good_post_survives():
    kept, tally = filter_posts([post(GOOD_TITLE)])
    assert len(kept) == 1
    assert sum(v for k, v in tally.items() if k != "missing_profanity_score") == 0


@pytest.mark.parametrize("title,score,profanity,rule", [
    ("", 10, 0.0, "empty_title"),
    ("   ", 10, 0.0, "empty_title"),
    (GOOD_TITLE, 4, 0.0, "low_score"),
    ("Why is that?", 10, 0.0, "short_title"),
    ("The Roman Empire split in 285 AD.", 10, 0.0, "not_interrogative"),
    ("Which subreddit explains the Roman Empire best?", 10, 0.0, "reddit_term"),
    ("Why did Rome fall? Why did Byzantium survive?", 10, 0.0, "multiple_questions"),
    ("Rome fell. Why did Byzantium survive?", 10, 0.0, "multiple_questions"),
    (GOOD_TITLE, 10, 0.95, "profanity"),
    ("Why do I sneeze when looking at the sun?", 10, 0.0, "first_person"),
    ("Why does my husband talk about the Roman Empire?", 10, 0.0, "first_person"),
    ("Why would anyone say is this normal about the Roman Empire?", 10, 0.0,
     "validation_seeking"),
])
def test_rejection_rules(title, score, profanity, rule):
    kept, tally = filter_posts([post(title, score=score, profanity=profanity)])
    assert kept == []
    assert tally[rule] == 1
    others = {k: v for k, v in tally.items() if k != rule}
    assert sum(others.values()) == 0


def test_rules_apply_in_declared_order():
    # Fails both low_score and first_person; tallied under the earlier rule.
    kept, tally = filter_posts([post("Why do I sneeze so loudly?", score=1)])
    assert tally["low_score"] == 1
    assert tally["first_person"] == 0


def test_missing_profanity_score_kept_and_flagged():
    kept, tally = filter_posts([post(GOOD_TITLE, profanity=None)])
    assert len(kept) == 1
    assert tally["missing_profanity_score"] == 1


def test_profanity_at_threshold_kept():
    kept, _ = filter_posts([post(GOOD_TITLE, profanity=0.8)])
    assert len(kept) == 1


def test_filtering_is_idempotent():
    posts = [
        post(GOOD_TITLE, post_id="a"),
        post("Why do I sneeze?", post_id="b"),
        post(GOOD_TITLE, score=1, post_id="c"),
    ]
    once, _ = filter_posts(posts)
    twice, tally = filter_posts(once)
    assert [p.post_id for p in twice] == [p.post_id for p in once]
    assert sum(v for k, v in tally.items() if k != "missing_profanity_score") == 0


# (post, the first rule it fails): one pair per rule in FILTER_RULES.
FIRST_FAILURES = [
    (post(""), "empty_title"),
    (post(GOOD_TITLE, score=4), "low_score"),
    (post("Why is that?"), "short_title"),
    (post("The Roman Empire split in 285 AD."), "not_interrogative"),
    (post("Which subreddit explains the Roman Empire best?"), "reddit_term"),
    (post("Rome fell. Why did Byzantium survive?"), "multiple_questions"),
    (post(GOOD_TITLE, profanity=0.95), "profanity"),
    (post("Why do I sneeze when looking at the sun?"), "first_person"),
    (post("Is this normal for a Roman legionary's diet?"), "validation_seeking"),
]


def test_every_rule_is_the_first_failure_of_some_post():
    for p, rule in FIRST_FAILURES:
        kept, tally = filter_posts([p])
        assert kept == [] and tally[rule] == 1, rule
    assert sorted(rule for _, rule in FIRST_FAILURES) == sorted(FILTER_RULES)


def test_tally_contains_every_rule():
    _, tally = filter_posts([])
    for rule in FILTER_RULES:
        assert rule in tally


def comments(scores, top_level=True):
    return [RawComment(comment_id=f"c{i}", text=f"t{i}", score=s, top_level=top_level)
            for i, s in enumerate(scores)]


def test_filter_comments_score_and_top_level():
    p = post(GOOD_TITLE, community="AskHistorians",
             comments=comments([3, 2, 5, 10, 3, 4, 3]) + comments([9, 9], top_level=False))
    surviving = filter_comments(p)
    # Scores below 3 and non-top-level comments are dropped; 6 remain, within [5, 12].
    assert surviving is not None
    assert [c.score for c in surviving] == [3, 5, 10, 3, 4, 3]


def test_filter_comments_too_few_drops_post():
    p = post(GOOD_TITLE, community="AskHistorians", comments=comments([3, 3, 3, 3]))
    assert filter_comments(p) is None


def test_filter_comments_too_many_drops_post():
    p = post(GOOD_TITLE, community="AskHistorians", comments=comments([3] * 13))
    assert filter_comments(p) is None


def test_community_specific_minimum():
    p = post(GOOD_TITLE, community="ScienceBasedParenting", comments=comments([3] * 4))
    assert filter_comments(p) is not None
    q = post(GOOD_TITLE, community="AskEconomics", comments=comments([3] * 4))
    assert filter_comments(q) is None


def test_community_specific_maximum():
    p = post(GOOD_TITLE, community="AskEconomics", comments=comments([3] * 25))
    assert filter_comments(p) is not None
    q = post(GOOD_TITLE, community="NoStupidQuestions", comments=comments([3] * 25))
    assert filter_comments(q) is None


def test_unknown_community_without_default_max():
    p = post(GOOD_TITLE, community="somewhere_new", comments=comments([3] * 6))
    with pytest.raises(UnknownCommunity):
        filter_comments(p)


def test_sampling_deterministic():
    posts = [post(GOOD_TITLE, post_id=f"p{i}") for i in range(40)]
    a = sample_questions(posts, 10, seed=7)
    b = sample_questions(posts, 10, seed=7)
    assert [p.post_id for p in a] == [p.post_id for p in b]
    c = sample_questions(posts, 10, seed=8)
    assert [p.post_id for p in c] != [p.post_id for p in a]


def test_sampling_without_replacement():
    posts = [post(GOOD_TITLE, post_id=f"p{i}") for i in range(10)]
    picked = sample_questions(posts, 10, seed=0)
    assert len({p.post_id for p in picked}) == 10


def test_sampling_insufficient_pool():
    with pytest.raises(InsufficientPosts):
        sample_questions([post(GOOD_TITLE)], 2, seed=0)


def test_corpus_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    records = [
        {"post_id": "p1", "title": GOOD_TITLE, "extra_field": {"nested": [1, 2]}},
        {"post_id": "p2", "title": "Another?"},
    ]
    write_corpus(path, records)
    loaded = read_corpus(path)
    assert len(loaded) == 2
    assert all(r["schema_version"] == SCHEMA_VERSION for r in loaded)
    # Unknown fields survive untouched.
    assert loaded[0]["extra_field"] == {"nested": [1, 2]}


def test_read_corpus_malformed_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"ok": 1}\nnot json at all\n')
    with pytest.raises(MalformedLine) as exc:
        read_corpus(path)
    assert exc.value.line_number == 2


def test_read_corpus_too_deep_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"ok": 1}\n{"rst_tree": ' + deep_tree_json(1500) + '}\n')
    with pytest.raises(MalformedLine) as exc:
        read_corpus(path)
    assert exc.value.line_number == 2


def test_read_corpus_schema_mismatch(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"schema_version": 99, "post_id": "p"}) + "\n")
    with pytest.raises(SchemaVersionMismatch):
        read_corpus(path)


def test_read_corpus_skips_blank_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"a": 1}\n\n   \n{"b": 2}\n')
    assert len(read_corpus(path)) == 2


def test_read_corpus_applies_view(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus(path, [{"a": 1, "extra": [2]}, {"a": 3}])
    assert read_corpus(path, view=lambda doc: doc["a"]) == [1, 3]


@pytest.mark.parametrize("bad", ['{"b": 1}', '{"a": null}'])
def test_read_corpus_unreadable_record_names_its_line(tmp_path, bad):
    path = tmp_path / "c.jsonl"
    path.write_text('{"a": [1]}\n\n' + bad + "\n")
    with pytest.raises(MalformedLine, match="line 3") as exc:
        read_corpus(path, view=lambda doc: list(doc["a"]))  # KeyError, then TypeError
    assert exc.value.line_number == 3


def test_read_corpus_non_object_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"a": 1}\n[1, 2]\n')
    with pytest.raises(MalformedLine) as exc:
        read_corpus(path)
    assert exc.value.line_number == 2


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", ['{"a": 1}\n', '{"a": 1}\nnot json\n', '{"a": 1}\n{"b": 1}\n'])
def test_read_corpus_restores_collector_state(tmp_path, enabled, text):
    path = tmp_path / "c.jsonl"
    path.write_text(text)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.suppress(MalformedLine):
            read_corpus(path, view=lambda doc: doc["a"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_raw_post_from_dict_defaults():
    p = RawPost.from_dict({"post_id": "x"})
    assert p.title == ""
    assert p.profanity_prob is None
    assert p.comments == []


@pytest.mark.parametrize("title", [
    "Why did the enemy husband of Cleopatra flee Rome?",
    "How does an economy family budget differ from a household one?",
    "What basis this normal form rests on in Codd's theory?",
])
def test_phrase_rules_match_whole_words_only(title):
    kept, tally = filter_posts([post(title)])
    assert len(kept) == 1, tally


def test_phrase_rules_match_across_punctuation_and_spacing():
    kept, tally = filter_posts([post("Why is this,  normal for Roman legionaries?")])
    assert kept == []
    assert tally["validation_seeking"] == 1
