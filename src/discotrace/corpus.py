"""Raw community QA ingestion, filtering heuristics, sampling, and JSONL
persistence.

Filtering keeps only information-seeking questions with enough surviving
answers. The word/phrase lists and the multiple-question and deixis
heuristics are editable configuration, not fixed contracts. Profanity is
consumed as a precomputed per-post probability; posts without a score are
kept but flagged.
"""

from __future__ import annotations

import gc
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import (
    InsufficientPosts,
    MalformedLine,
    SchemaVersionMismatch,
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

DEICTIC = ("this", "that", "these", "those", "here", "there")

DEFAULT_MIN_COMMENTS = {"ScienceBasedParenting": 4}

DEFAULT_MAX_COMMENTS = {
    "AskHistorians": 12, "history": 12, "OutOfTheLoop": 12, "beyondthebump": 12,
    "asklinguistics": 15, "explainlikeimfive": 15,
    "NoStupidQuestions": 18, "ScienceBasedParenting": 20, "AskEconomics": 30,
}


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
            post_id=doc["post_id"],
            title=doc.get("title", ""),
            score=int(doc.get("score", 0)),
            created_at=doc.get("created_at", ""),
            community=doc.get("community", ""),
            profanity_prob=doc.get("profanity_prob"),
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
    deictic: tuple = DEICTIC


def _is_interrogative(title: str, config: FilterConfig) -> bool:
    if title.rstrip().endswith("?"):
        return True
    words = set(re.findall(r"[\w']+", title.lower()))
    return any(wh in words for wh in config.wh_words)


def _multiple_statements(title: str) -> bool:
    stripped = title.strip()
    if stripped.count("?") > 1:
        return True
    # Sentence-final punctuation followed by more text.
    return bool(re.search(r"[.!?]\s+\S", stripped))


def _word_present(title: str, words) -> bool:
    found = set(re.findall(r"[\w']+", title.lower()))
    return any(w in found for w in words)


def _phrase_present(title: str, phrases) -> bool:
    lowered = title.lower()
    return any(p in lowered for p in phrases)


#: Rejection rule names in application order.
FILTER_RULES = (
    "empty_title",
    "low_score",
    "short_title",
    "not_interrogative",
    "reddit_term",
    "multiple_questions",
    "profanity",
    "first_person",
    "relationship_term",
    "deixis_first_person",
    "validation_seeking",
)


def _first_failing_rule(post: RawPost, config: FilterConfig) -> Optional[str]:
    title = post.title or ""
    if not title.strip():
        return "empty_title"
    if post.score < config.min_post_score:
        return "low_score"
    if len(re.findall(r"[\w']+", title)) < config.min_title_tokens:
        return "short_title"
    if not _is_interrogative(title, config):
        return "not_interrogative"
    if _word_present(title, config.reddit_terms):
        return "reddit_term"
    if _multiple_statements(title):
        return "multiple_questions"
    if post.profanity_prob is not None and post.profanity_prob > config.profanity_threshold:
        return "profanity"
    if _word_present(title, config.first_person):
        return "first_person"
    if _phrase_present(title, config.relationship_terms):
        return "relationship_term"
    if _word_present(title, config.deictic) and _word_present(title, config.first_person):
        return "deixis_first_person"
    if _phrase_present(title, config.validation_phrases):
        return "validation_seeking"
    return None


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
        rule = _first_failing_rule(post, config)
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
        raise UnknownCommunity(
            f"no comment-count bounds configured for community {post.community!r}"
        )
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
    maps each record as it is read, so only what it keeps stays in memory.
    The cyclic GC is paused meanwhile: parsed JSON cannot form cycles."""
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
                    except (KeyError, TypeError) as exc:
                        raise MalformedLine(
                            number, f"unreadable record ({type(exc).__name__}: {exc})"
                        ) from exc
                records.append(record)
    finally:
        if was_enabled:
            gc.enable()
    return records


def write_corpus(path, records: list[dict]) -> None:
    """Write records as JSONL, stamping schema_version when absent."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            if "schema_version" not in record:
                record = {"schema_version": SCHEMA_VERSION, **record}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
