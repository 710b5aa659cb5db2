"""Raw community QA ingestion, filtering heuristics, sampling, and JSONL
persistence.

Filtering keeps only information-seeking questions with enough surviving
answers. Each post is tallied under the first rule of ``_RULES`` it fails.
The thresholds and the word and phrase lists are module constants; no command
or config key sets them. Profanity is consumed as a precomputed per-post
probability; posts without a score are kept but flagged.
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

FIRST_PERSON = ("i", "i'm", "i've", "i'd", "i'll", "me", "my", "mine", "we", "our", "us")

MIN_TITLE_TOKENS = 4
MIN_POST_SCORE = 5
MIN_COMMENT_SCORE = 3
PROFANITY_THRESHOLD = 0.8

#: Surviving comments a post needs, by community; ``DEFAULT_MIN_COMMENTS`` in any other.
MIN_COMMENTS = {"ScienceBasedParenting": 4}
DEFAULT_MIN_COMMENTS = 5

#: The most surviving comments a post may have, by community; a post of any other
#: community raises ``UnknownCommunity``.
MAX_COMMENTS = {
    "AskHistorians": 12, "history": 12, "OutOfTheLoop": 12, "beyondthebump": 12,
    "asklinguistics": 15, "explainlikeimfive": 15,
    "NoStupidQuestions": 18, "ScienceBasedParenting": 20, "AskEconomics": 30,
}


def typed(doc: dict, key: str, kind, *default):
    """``doc[key]``, or ``default`` when given and the key is absent, read by :func:`of_type`;
    a null passes where that default is None. A TypeError names the key, and ``read_corpus``
    reports it with its line."""
    value = doc.get(key, *default) if default else doc[key]
    if value is None and default == (None,):
        return None
    return of_type(key, value, kind)


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

    @classmethod
    def from_dict(cls, doc: dict) -> "RawComment":
        doc = of_type("a comment", doc, dict)
        return cls(
            comment_id=typed(doc, "comment_id", str),
            text=typed(doc, "text", str, ""),
            score=typed(doc, "score", int, 0),
            top_level=typed(doc, "top_level", bool, True),
        )


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
        """A post from its JSON object: each field of its exact JSON type (a score is an
        integer, a profanity_prob a number or null, a title text or null, read as "")."""
        return cls(
            post_id=typed(doc, "post_id", str),
            title=typed(doc, "title", str, None) or "",
            score=typed(doc, "score", int, 0),
            created_at=doc.get("created_at", ""),
            community=typed(doc, "community", str, ""),
            profanity_prob=typed(doc, "profanity_prob", float, None),
            comments=[RawComment.from_dict(c) for c in typed(doc, "comments", list, [])],
        )


class _Title(NamedTuple):
    """A post's title as given; its lowered words joined by single spaces, with one
    more at each end, so that a phrase matches only whole words; and their set."""
    text: str
    spaced: str
    words: set


_WORD_RE = re.compile(r"[\w']+")
_SENTENCE_THEN_TEXT_RE = re.compile(r"[.!?]\s+\S")


#: (rule name, predicate(post, title) true when the post fails the rule), in application order.
_RULES = (
    ("empty_title", lambda p, t: not t.text.strip()),
    ("low_score", lambda p, t: p.score < MIN_POST_SCORE),
    # Counted on the title as given: "\u0130".lower() is two code points, the second no
    # word character, so lowering can change the count.
    ("short_title", lambda p, t: len(_WORD_RE.findall(t.text)) < MIN_TITLE_TOKENS),
    ("not_interrogative",
     lambda p, t: not t.text.rstrip().endswith("?") and t.words.isdisjoint(WH_WORDS)),
    ("reddit_term", lambda p, t: not t.words.isdisjoint(REDDIT_TERMS)),
    # Two question marks, or sentence-final punctuation followed by more text. Stripping
    # the title first would change neither: strip() removes exactly what \s matches.
    ("multiple_questions",
     lambda p, t: t.text.count("?") > 1 or _SENTENCE_THEN_TEXT_RE.search(t.text) is not None),
    ("profanity",
     lambda p, t: p.profanity_prob is not None and p.profanity_prob > PROFANITY_THRESHOLD),
    ("first_person", lambda p, t: not t.words.isdisjoint(FIRST_PERSON)),
    # Each phrase is lowered words joined by single spaces, so it matches whole words only.
    ("validation_seeking", lambda p, t: any(f" {x} " in t.spaced for x in VALIDATION_PHRASES)),
)

#: Rejection rule names in application order.
FILTER_RULES = tuple(name for name, _ in _RULES)


def filter_posts(posts: list[RawPost]) -> tuple[list[RawPost], dict[str, int]]:
    """Apply the title filters in order; returns (kept, per-rule tally).

    A post is tallied under the first rule it fails. Posts lacking a
    profanity score are kept and tallied under ``missing_profanity_score``
    (informational; not a rejection).
    """
    kept = []
    tally = {rule: 0 for rule in FILTER_RULES}
    tally["missing_profanity_score"] = 0
    for post in posts:
        text = post.title or ""
        words = _WORD_RE.findall(text.lower())
        title = _Title(text, f" {' '.join(words)} ", set(words))
        rule = next((name for name, fails in _RULES if fails(post, title)), None)
        if rule is None:
            if post.profanity_prob is None:
                tally["missing_profanity_score"] += 1
            kept.append(post)
        else:
            tally[rule] += 1
    return kept, tally


def filter_comments(post: RawPost):
    """Surviving top-level comments, or None when the post is dropped.

    Keeps top-level comments with score >= ``MIN_COMMENT_SCORE``, then keeps
    the post only if the surviving count lies within the community's
    [min, max] bounds (inclusive).
    """
    surviving = [c for c in post.comments if c.top_level and c.score >= MIN_COMMENT_SCORE]
    if post.community not in MAX_COMMENTS:
        raise UnknownCommunity(f"post {post.post_id!r}: no comment-count bounds "
                               f"configured for community {post.community!r}")
    lo = MIN_COMMENTS.get(post.community, DEFAULT_MIN_COMMENTS)
    if lo <= len(surviving) <= MAX_COMMENTS[post.community]:
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
