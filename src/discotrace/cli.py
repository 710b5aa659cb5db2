"""Command-line entry point wiring the modules into batch workflows.

Every subcommand reads and writes JSONL. The only randomness is the
question draw of ``sample``, fixed by its --seed; with mock backends no
subcommand performs network I/O, so runs replay byte-identically. Exit
codes: 0 success (including degraded runs with diagnostics), 1 input
error, 2 backend failure.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click

from . import corpus as corpus_io
from .config import PipelineConfig
from .errors import AuthError, DiscoTraceError, FixtureMiss, TransportError
from .gateway import complete
from .interpretations import InterpretationSpace, build_space
from .ontology import load_ontology
from .pipeline import DiscoTrace, pair_interpretations, tag_answer
from .prompts import build_mimic_prompt
from .rst import parse_rst_tree
from .segmentation import segment_answer
from .stats import (
    Smoothing,
    cross_perplexity_matrix,
    fit_bigram,
    interpretation_metrics,
    project_families,
)

_BACKEND_ERRORS = (TransportError, AuthError, FixtureMiss)
_INPUT_ERRORS = (FileNotFoundError, KeyError, ValueError)


class _ExitCodes(click.Group):
    """Maps every subcommand's errors to exit codes: 2 backend failure, 1 input error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (DiscoTraceError, *_INPUT_ERRORS) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2 if isinstance(exc, _BACKEND_ERRORS) else 1)


def _load_config(path) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    return PipelineConfig.from_file(path)


@click.group(cls=_ExitCodes)
def main():
    """Discourse-trace answer analysis toolkit."""


@main.command("filter")
@click.option("--in", "in_path", required=True, help="Raw posts JSONL.")
@click.option("--out", "out_path", required=True, help="Kept questions JSONL.")
@click.option("--tally-out", default=None, help="Per-rule rejection tally JSON.")
def filter_cmd(in_path, out_path, tally_out):
    """Apply the question-quality filters to a raw post dump."""
    records = corpus_io.read_corpus(in_path)
    posts = [corpus_io.RawPost.from_dict(r) for r in records]
    config = corpus_io.FilterConfig()
    kept, tally = corpus_io.filter_posts(posts, config)
    out_records = []
    for post in kept:
        comments = corpus_io.filter_comments(post, config)
        if comments is None:
            tally["comment_count_bounds"] = tally.get("comment_count_bounds", 0) + 1
            continue
        out_records.append({
            "post_id": post.post_id,
            "title": post.title,
            "community": post.community,
            "comments": [
                {"comment_id": c.comment_id, "text": c.text, "score": c.score}
                for c in comments
            ],
        })
    corpus_io.write_corpus(out_path, out_records)
    if tally_out:
        Path(tally_out).write_text(json.dumps(tally, indent=2))
    click.echo(f"kept {len(out_records)} of {len(posts)} posts")


@main.command("sample")
@click.option("--in", "in_path", required=True)
@click.option("--out", "out_path", required=True)
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, default=0)
def sample_cmd(in_path, out_path, n, seed):
    """Uniformly sample questions without replacement."""
    records = corpus_io.read_corpus(in_path)
    sampled = corpus_io.sample_questions(records, n, seed)
    corpus_io.write_corpus(out_path, sampled)
    click.echo(f"sampled {n} of {len(records)} records (seed {seed})")


@main.command("segment")
@click.option("--in", "in_path", required=True, help="Answers JSONL with rst_tree.")
@click.option("--out", "out_path", required=True)
@click.option("--config", "config_path", default=None)
def segment_cmd(in_path, out_path, config_path):
    """Split each answer's discourse tree into action segments."""
    config = _load_config(config_path)
    records = corpus_io.read_corpus(in_path)
    out_records = []
    for record in records:
        tree = parse_rst_tree(record["rst_tree"])
        segments = segment_answer(tree, config.boundary, answer_id=record["answer_id"])
        out_records.append({
            "answer_id": record["answer_id"],
            "question_id": record.get("question_id"),
            "segments": [
                {"edu_indices": list(s.edu_indices), "text": s.text}
                for s in segments
            ],
        })
    corpus_io.write_corpus(out_path, out_records)
    click.echo(f"segmented {len(out_records)} answers")


@main.command("interp")
@click.option("--in", "in_path", required=True, help="Questions JSONL.")
@click.option("--out", "out_path", required=True, help="Interpretation spaces JSONL.")
@click.option("--config", "config_path", required=True)
@click.option("--dedup-threshold", type=float, default=None)
def interp_cmd(in_path, out_path, config_path, dedup_threshold):
    """Generate and deduplicate the interpretation space per question."""
    config = _load_config(config_path)
    threshold = dedup_threshold if dedup_threshold is not None else config.dedup_threshold
    if not config.interp_generators or config.embedder is None:
        raise ValueError("config must define interp_generators and embedder")
    records = corpus_io.read_corpus(in_path)
    out_records = []
    for record in records:
        space, warnings = build_space(
            question_id=record["post_id"],
            question=record["title"],
            community_context=record.get("community_context", ""),
            generator_backends=config.interp_generators,
            embedder=config.embedder,
            threshold=threshold,
        )
        doc = space.to_dict()
        if warnings:
            doc["warnings"] = warnings
        out_records.append(doc)
    corpus_io.write_corpus(out_path, out_records)
    click.echo(f"built {len(out_records)} interpretation spaces")


@main.command("trace")
@click.option("--in", "in_path", required=True, help="Answers JSONL with rst_tree.")
@click.option("--questions", "questions_path", required=True, help="Questions JSONL.")
@click.option("--spaces", "spaces_path", default=None, help="Interpretation spaces JSONL.")
@click.option("--out", "out_path", required=True, help="Traces JSONL.")
@click.option("--config", "config_path", required=True)
def trace_cmd(in_path, questions_path, spaces_path, out_path, config_path):
    """Produce the full discourse trace for each answer."""
    config = _load_config(config_path)
    if config.act_labeler is None:
        raise ValueError("config must define act_labeler")
    ontology = load_ontology(config.ontology_path)
    answers = corpus_io.read_corpus(in_path)
    questions = {
        r["post_id"]: r for r in corpus_io.read_corpus(questions_path)
    }
    spaces = _read_spaces(spaces_path) if spaces_path else {}
    labeler = config.interp_labeler or config.act_labeler

    def run_one(record):
        question = questions[record["question_id"]]["title"]
        tree = parse_rst_tree(record["rst_tree"])
        segments = segment_answer(tree, config.boundary, answer_id=record["answer_id"])
        tagged, diagnostics = tag_answer(
            question, record["text"], segments, tree, ontology, config.act_labeler
        )
        space = spaces.get(record["question_id"])
        trace = pair_interpretations(
            question, space, tagged, record["text"], ontology, labeler,
            answer_id=record["answer_id"],
            question_id=record["question_id"],
            tree=tree,
            diagnostics=diagnostics,
        )
        return trace.to_dict()

    # Each worker has at most one call in flight, so neither backend's limit is exceeded.
    workers = min(config.act_labeler.max_in_flight, labeler.max_in_flight)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        out_records = list(pool.map(run_one, answers))
    corpus_io.write_corpus(out_path, out_records)
    n_diag = sum(len(r["diagnostics"]) for r in out_records)
    click.echo(f"traced {len(out_records)} answers ({n_diag} diagnostics)")


def _act_ids(doc) -> list:
    return [s["act_id"] for s in doc.get("steps", ())]


def _read_spaces(path) -> dict:
    spaces = corpus_io.read_corpus(path, view=InterpretationSpace.from_dict)
    return {space.question_id: space for space in spaces}


def _vocabulary(ontology, family_level: bool) -> list:
    if family_level:
        return sorted({a.family for a in ontology.acts if a.family}) + ["NONE"]
    return ontology.act_ids()


def _smoothing_from_flag(flag, config):
    if flag is None:
        return config.smoothing
    if flag == "mle":
        return Smoothing(mode="mle")
    if flag.startswith("add_lambda"):
        lam = float(flag.split(":", 1)[1]) if ":" in flag else 1.0
        return Smoothing(mode="add_lambda", lam=lam)
    raise ValueError(f"unknown smoothing {flag!r} (use 'mle' or 'add_lambda[:LAM]')")


@main.command("model")
@click.option("--in", "in_path", required=True, help="Traces JSONL.")
@click.option("--out", "out_path", required=True, help="Model JSON.")
@click.option("--config", "config_path", default=None)
@click.option("--smoothing", "smoothing_flag", default=None)
@click.option("--family-level", is_flag=True, default=False)
def model_cmd(in_path, out_path, config_path, smoothing_flag, family_level):
    """Fit a bigram strategy model over act sequences."""
    config = _load_config(config_path)
    ontology = load_ontology(config.ontology_path)
    traces = corpus_io.read_corpus(in_path, view=_act_ids)
    smoothing = _smoothing_from_flag(smoothing_flag, config)
    sequences = project_families(traces, ontology) if family_level else traces
    model = fit_bigram(sequences, smoothing, vocabulary=_vocabulary(ontology, family_level))
    Path(out_path).write_text(json.dumps({
        "vocabulary": list(model.vocabulary),
        "counts": [[prev, nxt, c] for (prev, nxt), c in sorted(model.counts.items())],
        "smoothing": {"mode": smoothing.mode, "lambda": smoothing.lam},
        "training_sequences": model.training_sequences,
    }, indent=2))
    click.echo(f"fit bigram model over {model.training_sequences} traces")


@main.command("compare")
@click.option("--corpora", multiple=True, required=True,
              help="NAME=path pairs (or bare paths, named by stem).")
@click.option("--out", "out_path", required=True, help="Output CSV path.")
@click.option("--json-out", default=None)
@click.option("--long-csv-out", default=None)
@click.option("--config", "config_path", default=None)
@click.option("--smoothing", "smoothing_flag", default=None)
@click.option("--family-level", is_flag=True, default=False)
def compare_cmd(corpora, out_path, json_out, long_csv_out, config_path,
                smoothing_flag, family_level):
    """Cross-perplexity matrix across trace corpora."""
    config = _load_config(config_path)
    ontology = load_ontology(config.ontology_path)
    smoothing = _smoothing_from_flag(smoothing_flag, config)
    named = {}
    for item in corpora:
        name, _, path = item.rpartition("=")
        name = name or Path(path).stem
        traces = corpus_io.read_corpus(path, view=_act_ids)
        named[name] = project_families(traces, ontology) if family_level else traces
    matrix = cross_perplexity_matrix(named, smoothing,
                                     vocabulary=_vocabulary(ontology, family_level))
    with open(out_path, "w", newline="") as handle:
        matrix.write_csv(handle)
    if json_out:
        Path(json_out).write_text(matrix.to_json())
    if long_csv_out:
        with open(long_csv_out, "w", newline="") as handle:
            matrix.write_long_csv(handle)
    click.echo(f"wrote {len(named)}x{len(named)} cross-perplexity matrix")


@main.command("metrics")
@click.option("--in", "in_path", required=True, help="Traces JSONL.")
@click.option("--spaces", "spaces_path", required=True)
@click.option("--out", "out_path", required=True, help="Metrics JSON.")
@click.option("--config", "config_path", default=None)
def metrics_cmd(in_path, spaces_path, out_path, config_path):
    """Coverage, dedication, and unmatched-rate aggregates."""
    config = _load_config(config_path)
    ontology = load_ontology(config.ontology_path)
    traces = corpus_io.read_corpus(in_path, view=DiscoTrace.from_dict)
    spaces = _read_spaces(spaces_path)
    report = interpretation_metrics(traces, spaces, ontology)
    coverages = list(report.coverage.values())
    dedications = list(report.dedication.values())
    Path(out_path).write_text(json.dumps({
        "unmatched_rate": report.unmatched_rate,
        "coverage_mean": sum(coverages) / len(coverages) if coverages else None,
        "dedication_mean": sum(dedications) / len(dedications) if dedications else None,
        "coverage": report.coverage,
        "matched_per_answer": report.matched_per_answer,
        "eligible_per_answer": report.eligible_per_answer,
        "dedication": {
            f"{aid}:{iid}": value
            for (aid, iid), value in report.dedication.items()
        },
    }, indent=2))
    click.echo(f"computed metrics for {len(traces)} traces")


@main.command("mimic-answer")
@click.option("--in", "in_path", required=True, help="Questions JSONL.")
@click.option("--out", "out_path", required=True, help="Generated answers JSONL.")
@click.option("--config", "config_path", required=True)
@click.option("--subreddit", required=True)
@click.option("--explanation", required=True)
@click.option("--guidelines-file", required=True, type=click.Path(exists=True))
@click.option("--max-tokens", type=int, default=1000)
def mimic_cmd(in_path, out_path, config_path, subreddit, explanation,
              guidelines_file, max_tokens):
    """Generate answers as a member of a community, via its guidelines."""
    config = _load_config(config_path)
    backend = config.answer_generator
    if backend is None:
        raise ValueError("config must define answer_generator")
    guidelines = Path(guidelines_file).read_text()
    records = corpus_io.read_corpus(in_path)
    out_records = []
    for record in records:
        request = build_mimic_prompt(
            question=record["title"],
            subreddit_name=subreddit,
            subreddit_explanation=explanation,
            guidelines=guidelines,
            model_name=backend.model,
            max_tokens=max_tokens,
        )
        out_records.append({
            "question_id": record["post_id"],
            "answer_text": complete(backend, request),
            "generator": backend.name,
        })
    corpus_io.write_corpus(out_path, out_records)
    click.echo(f"generated {len(out_records)} mimic answers")


if __name__ == "__main__":
    main()
