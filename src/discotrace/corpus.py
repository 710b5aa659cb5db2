"""Raw community QA ingestion, filtering heuristics, sampling, and JSONL
persistence.

Filtering keeps only information-seeking questions with enough surviving
answers. Each post is tallied under the first rule of ``_RULES`` it fails;
the word/phrase lists and the multiple-question heuristic are editable
configuration, not fixed contracts. Profanity is consumed as a precomputed
per-post probability; posts without a score are kept but flagged.
"""

from __future__ import annotations

import gc
import json
import random
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import (
    InsufficientPosts,
    MalformedLine,
    SchemaVersionMismatch,
    UnknownActId,
    UnknownCommunity,
)

SCHEMA_VERSION = 1

WH_WORDS = ("who", "what", "when", "where", "why", "which", "how")

REDDIT_TERMS = ("subreddit", "redditor", "upvote", "karma")

VALIDATION_PHRASES = ("is this normal", "does anyone else", "is this okay")

RELATIONSHIP_TERMS = (
    "my husband", "my wife", "my boyfriend", "my girlfriend", "my partner",
    "my mom", "my mother", "my dad", "my father", "my son", "my daughter",
    "my ex", "my family",
)

FIRST_PERSON = ("i", "i'm", "i've", "i'd", "i'll", "me", "my", "mine", "we", "our", "us")

DEFAULT_MIN_COMMENTS = {"ScienceBasedParenting": 4}

DEFAULT_MAX_COMMENTS = {
    "AskHistorians": 12, "history": 12, "OutOfTheLoop": 12, "beyondthebump": 12,
    "asklinguistics": 15, "explainlikeimfive": 15,
    "NoStupidQuestions": 18, "ScienceBasedParenting": 20, "AskEconomics": 30,
}


def typed(doc: dict, key: str, kind, *default):
    """``doc[key]``, or ``default`` when given and the key is absent, if it is a ``kind``;
    else a TypeError naming the key, which ``read_corpus`` reports with its line."""
    value = doc.get(key, *default) if default else doc[key]
    if not isinstance(value, kind):
        raise TypeError(f"{key} cannot be {type(value).__name__}")
    return value


def of_type(key: str, value, kind):
    """``value`` if its type is exactly ``kind`` (so a bool is no int), or an int where ``kind``
    is float, as a float; else a TypeError naming ``key`` (a ValueError for an int too large
    for a float)."""
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{key} is too large for a float") from None
    if type(value) is not kind:
        raise TypeError(f"{key} cannot be {type(value).__name__}")
    return value


def read_fields(cls, doc: dict, keys=None):
    """``cls(**doc)`` for a config entry of ``cls``'s fields, spelt as ``keys`` maps them, each
    :func:`of_type` its default: text or null for None, a list for a tuple or frozenset."""
    spelt = {(keys or {}).get(f.name, f.name): f for f in fields(cls)}
    values = {}
    for key, value in doc.items():
        if key not in spelt:
            raise ValueError(f"unknown key {key!r}")
        default = spelt[key].default
        if isinstance(default, (tuple, frozenset)):  # inner lists become tuples
            value = type(default)(tuple(v) if type(v) is list else v
                                  for v in of_type(key, value, list))
        elif value is not None or default is not None:
            value = of_type(key, value, str if default is None else type(default))
        values[spelt[key].name] = value
    return cls(**values)


@dataclass
class RawComment:
    comment_id: str
    text: str
    score: int
    top_level: bool = True


@dataclass
class RawPost:
    post_id: str
    title: str
    score: int
    created_at: str
    community: str
    profanity_prob: Optional[float] = None
    comments: list = field(default_factory=list)

    @classmethod
    def from_dict(cls, doc: dict) -> "RawPost":
        return cls(
            post_id=typed(doc, "post_id", str),
            title=typed(doc, "title", (str, type(None)), ""),
            score=int(doc.get("score", 0)),
            created_at=doc.get("created_at", ""),
            community=typed(doc, "community", str, ""),
            profanity_prob=typed(doc, "profanity_prob", (int, float, type(None)), None),
            comments=[
                RawComment(
                    comment_id=c["comment_id"],
                    text=c.get("text", ""),
                    score=int(c.get("score", 0)),
                    top_level=bool(c.get("top_level", True)),
                )
                for c in doc.get("comments", [])
            ],
        )


@dataclass
class FilterConfig:
    min_title_tokens: int = 4
    min_post_score: int = 5
    min_comment_score: int = 3
    profanity_threshold: float = 0.8
    min_comments: dict = field(default_factory=lambda: dict(DEFAULT_MIN_COMMENTS))
    max_comments: dict = field(default_factory=lambda: dict(DEFAULT_MAX_COMMENTS))
    default_min_comments: Optional[int] = 5
    default_max_comments: Optional[int] = None
    wh_words: tuple = WH_WORDS
    reddit_terms: tuple = REDDIT_TERMS
    validation_phrases: tuple = VALIDATION_PHRASES
    relationship_terms: tuple = RELATIONSHIP_TERMS
    first_person: tuple = FIRST_PERSON


class _Title(NamedTuple):
    """A post's title as given; its lowered words joined by single spaces, with one
    more at each end, so that a phrase matches only whole words; and their set."""
    text: str
    spaced: str
    words: set


_WORD_RE = re.compile(r"[\w']+")
_SENTENCE_THEN_TEXT_RE = re.compile(r"[.!?]\s+\S")


def _has_phrase(title: _Title, phrases) -> bool:
    """Whether one of ``phrases`` occurs in the title as whole words."""
    return any(f" {' '.join(_WORD_RE.findall(x.lower()))} " in title.spaced for x in phrases)


#: (rule name, predicate(post, title, config) true when the post fails the rule),
#: in application order.
_RULES = (
    ("empty_title", lambda p, t, c: not t.text.strip()),
    ("low_score", lambda p, t, c: p.score < c.min_post_score),
    # Counted on the title as given: "\u0130".lower() is two code points, the second no
    # word character, so lowering can change the count.
    ("short_title", lambda p, t, c: len(_WORD_RE.findall(t.text)) < c.min_title_tokens),
    ("not_interrogative",
     lambda p, t, c: not t.text.rstrip().endswith("?") and t.words.isdisjoint(c.wh_words)),
    ("reddit_term", lambda p, t, c: not t.words.isdisjoint(c.reddit_terms)),
    # Two question marks, or sentence-final punctuation followed by more text. Stripping
    # the title first would change neither: strip() removes exactly what \s matches.
    ("multiple_questions",
     lambda p, t, c: t.text.count("?") > 1 or _SENTENCE_THEN_TEXT_RE.search(t.text) is not None),
    ("profanity",
     lambda p, t, c: p.profanity_prob is not None and p.profanity_prob > c.profanity_threshold),
    ("first_person", lambda p, t, c: not t.words.isdisjoint(c.first_person)),
    ("relationship_term", lambda p, t, c: _has_phrase(t, c.relationship_terms)),
    ("validation_seeking", lambda p, t, c: _has_phrase(t, c.validation_phrases)),
)

#: Rejection rule names in application order.
FILTER_RULES = tuple(name for name, _ in _RULES)


def filter_posts(
    posts: list[RawPost],
    config: Optional[FilterConfig] = None,
) -> tuple[list[RawPost], dict[str, int]]:
    """Apply the title filters in order; returns (kept, per-rule tally).

    A post is tallied under the first rule it fails. Posts lacking a
    profanity score are kept and tallied under ``missing_profanity_score``
    (informational; not a rejection).
    """
    config = config or FilterConfig()
    kept = []
    tally = {rule: 0 for rule in FILTER_RULES}
    tally["missing_profanity_score"] = 0
    for post in posts:
        text = post.title or ""
        words = _WORD_RE.findall(text.lower())
        title = _Title(text, f" {' '.join(words)} ", set(words))
        rule = next((name for name, fails in _RULES if fails(post, title, config)), None)
        if rule is None:
            if post.profanity_prob is None:
                tally["missing_profanity_score"] += 1
            kept.append(post)
        else:
            tally[rule] += 1
    return kept, tally


def filter_comments(post: RawPost, config: Optional[FilterConfig] = None):
    """Surviving top-level comments, or None when the post is dropped.

    Keeps top-level comments with score >= min_comment_score, then keeps
    the post only if the surviving count lies within the community's
    [min, max] bounds (inclusive).
    """
    config = config or FilterConfig()
    surviving = [
        c for c in post.comments
        if c.top_level and c.score >= config.min_comment_score
    ]
    lo = config.min_comments.get(post.community, config.default_min_comments)
    hi = config.max_comments.get(post.community, config.default_max_comments)
    if lo is None or hi is None:
        raise UnknownCommunity(f"post {post.post_id!r}: no comment-count bounds "
                               f"configured for community {post.community!r}")
    if lo <= len(surviving) <= hi:
        return surviving
    return None


def sample_questions(posts: list, n: int, seed: int) -> list:
    """Uniform sample without replacement, deterministic given the seed."""
    if n > len(posts):
        raise InsufficientPosts(f"requested {n} from pool of {len(posts)}")
    return random.Random(seed).sample(posts, n)


def read_corpus(path, view=None) -> list:
    """Read a JSONL corpus; unknown fields are preserved verbatim. ``view``
    maps each record as it is read, so only what it keeps stays in memory;
    a record it cannot read raises ``MalformedLine`` with the line's number.

    The cyclic GC is paused meanwhile, and a read that succeeds ends with
    ``gc.freeze()``: every object the process holds then, the records among
    them, moves to the permanent generation, which later collections do not
    walk. Parsed JSON cannot form cycles, and a frozen object is still freed
    by reference counting when its last reference goes; only cyclic garbage
    made before the freeze would stay until ``gc.unfreeze()``."""
    records = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    # The decoder recurses per nesting level, so a deep enough
                    # document raises RecursionError rather than a decode error.
                    raise MalformedLine(number, str(exc)) from exc
                if not isinstance(record, dict):
                    raise MalformedLine(number, "record is not a JSON object")
                version = record.get("schema_version", SCHEMA_VERSION)
                if version != SCHEMA_VERSION:
                    raise SchemaVersionMismatch(
                        f"line {number}: schema_version {version} != {SCHEMA_VERSION}"
                    )
                if view is not None:
                    try:
                        record = view(record)
                    except (KeyError, TypeError, ValueError, UnknownActId) as exc:
                        message = (f"missing field {exc}" if isinstance(exc, KeyError)
                                   else f"unreadable record ({type(exc).__name__}: {exc})")
                        raise MalformedLine(number, message) from exc
                records.append(record)
        gc.freeze()
    finally:
        if was_enabled:
            gc.enable()
    return records


def write_corpus(path, records: list[dict]) -> None:
    """Write records as JSONL lines, each by :func:`write_record`."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            write_record(handle, record)


def write_record(handle, record: dict) -> None:
    """Write one JSONL line to a UTF-8 text ``handle``, stamping schema_version when absent.
    A record UTF-8 cannot encode (JSON input may carry a lone surrogate) is escaped."""
    if "schema_version" not in record:
        record = {"schema_version": SCHEMA_VERSION, **record}
    try:
        handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    except UnicodeEncodeError:  # encoding fails before anything is written
        handle.write(json.dumps(record) + "\n")
