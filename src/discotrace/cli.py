"""Command-line entry point wiring the modules into batch workflows.

Every subcommand reads and writes JSONL. The only randomness is the question draw
of ``sample``, fixed by its --seed; with mock backends no subcommand performs
network I/O, so runs replay byte-identically. Exit codes: 0 success (including
degraded runs with diagnostics), 1 input error, which names its record, 2 backend
failure (a ``BackendError``), including a batch whose live calls all failed. With live
backends, ``interp``, ``trace`` and ``mimic-answer`` put at most ``max_in_flight``
requests on the wire to each endpoint (the smallest value among the backends that
name it). A request that is backing off holds no slot, and twice as many records
run at once as there are slots, so one record's backoff leaves no slot idle.
With none live they run one record at a time in the calling thread, as
``segment`` does. Each record is written to ``--out``, and flushed, as soon as it
and every record before it are done, so a run that fails or is killed leaves the
records finished before that point. Ctrl-C exits 130. A usage error (a missing or
unknown option, a value of the wrong type, no subcommand) is an input error, exit 1.
The command line is parsed by the standard library's ``argparse``: no option may be
abbreviated, and only ``--help`` asks for help.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator

from . import corpus as corpus_io
from . import gateway
from .config import PipelineConfig
from .errors import BackendError, UnparsableResponse
from .interpretations import InterpretationSpace, build_space
from .ontology import load_ontology
from .pipeline import pair_interpretations, tag_answer
from .prompts import build_mimic_prompt
from .rst import parse_rst_tree
from .segmentation import segment_answer
from .stats import (
    cross_perplexity_matrix,
    fit_bigram,
    interpretation_metrics,
    project_families,
)

def _run_batch(in_path, out_path, run_one, noun, id_key, backends=()) -> Iterator[dict]:
    """Map ``run_one`` over ``in_path``'s records, writing each result to ``out_path``,
    and flushing it, as soon as it and every record before it are done, then yielding it.
    So a failure, a kill or Ctrl-C leaves ``out_path`` the in-order prefix finished by then,
    and no finished result is kept: memory holds the input and the records in flight.
    Live ``backends`` open :func:`gateway.in_flight`: at most ``max_in_flight`` requests on
    the wire per endpoint, and a request that is backing off holds no slot, so the batch
    runs on twice as many workers as slots and one record's backoff leaves no slot idle.
    With none live it runs in the calling thread: a mock does no I/O to overlap.
    ``out_path`` is opened after the input is read and before any record runs, so a bad
    input line leaves it untouched and an unwritable one costs no work.

    An error while a record runs names the record, ``<noun> <name>: <reason>``, where the
    name is the record's ``id_key``, or its 1-based position when that is not a string: an
    input error as its ``corpus.input_error``, a backend error keeping its type. The outage
    that ``in_flight`` raises when the batch's live calls all failed names no record."""
    records = corpus_io.read_corpus(in_path)
    positions = range(1, len(records) + 1)

    def run_named(record, position):
        try:
            return run_one(record)
        except corpus_io.INPUT_ERRORS as exc:
            record_id = record.get(id_key)
            where = f"{noun} {record_id!r}" if isinstance(record_id, str) else f"{noun} #{position}"
            if isinstance(exc, BackendError):
                exc.args = (f"{where}: {exc}",)  # keeps the type, exit 2, and a miss's digest
                raise
            raise corpus_io.input_error(where, exc) from exc

    def results(slots):
        """Each record's result, in input order."""
        if not slots:
            yield from map(run_named, records, positions)
            return
        from concurrent.futures import ThreadPoolExecutor  # only live I/O overlaps

        with ThreadPoolExecutor(2 * slots) as pool:
            yield from pool.map(run_named, records, positions)

    with open(out_path, "w", encoding="utf-8") as out, gateway.in_flight(backends) as slots:
        for result in results(slots):
            corpus_io.write_record(out, result)
            out.flush()
            yield result


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that accepts no abbreviated option and no ``-h``, and raises
    a usage error as a ``ValueError``, an input error (exit 1)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


_COMMANDS: dict = {}  # subcommand name -> its function, whose options ``_option`` listed


def _command(name):
    """Register the decorated function as subcommand ``name``."""
    def register(fn):
        _COMMANDS[name] = fn
        return fn
    return register


def _option(flag, dest=None, **kwargs):
    """Give the decorated subcommand the option ``flag``: ``add_argument``'s arguments,
    listed in the order the decorators are written."""
    def add(fn):
        fn.options = [(flag, dict(kwargs, dest=dest)), *getattr(fn, "options", ())]
        return fn
    return add


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="discotrace", description="Discourse-trace answer analysis toolkit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, fn in _COMMANDS.items():
        command = commands.add_parser(name, help=fn.__doc__.partition("\n")[0],
                                      description=fn.__doc__)
        for flag, kwargs in fn.options:
            command.add_argument(flag, **kwargs)
        command.set_defaults(run=fn)
    return parser


def main(argv=None) -> None:
    """Run the subcommand that ``argv`` (default ``sys.argv[1:]``) names, and return.
    Errors exit as the module docstring says: 2 on a backend failure, 1 on an input error
    (a usage error is one), 130 on Ctrl-C."""
    try:
        args = vars(_parser().parse_args(argv))
        args.pop("run")(**args)
    except corpus_io.INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2 if isinstance(exc, BackendError) else 1)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        sys.exit(130)


# The calling form that perfbench/traced_cli.py uses: main.main(args=..., prog_name=..., ...).
main.main = lambda args=None, prog_name=None, standalone_mode=True: main(args)


@_command("filter")
@_option("--in", "in_path", required=True, help="Raw posts JSONL.")
@_option("--out", "out_path", required=True, help="Kept questions JSONL.")
@_option("--tally-out", default=None, help="Per-rule rejection tally JSON.")
def filter_cmd(in_path, out_path, tally_out):
    """Apply the question-quality filters to a raw post dump."""
    posts = corpus_io.read_corpus(in_path, view=corpus_io.RawPost.from_dict)
    kept, tally = corpus_io.filter_posts(posts)
    out_records = []
    for post in kept:
        comments = corpus_io.filter_comments(post)
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
        Path(tally_out).write_text(json.dumps(tally, indent=2), encoding="utf-8")
    print(f"kept {len(out_records)} of {len(posts)} posts")


@_command("sample")
@_option("--in", "in_path", required=True)
@_option("--out", "out_path", required=True)
@_option("--n", type=int, required=True)
@_option("--seed", type=int, default=0)
def sample_cmd(in_path, out_path, n, seed):
    """Uniformly sample questions without replacement."""
    records = corpus_io.read_corpus(in_path)
    sampled = corpus_io.sample_questions(records, n, seed)
    corpus_io.write_corpus(out_path, sampled)
    print(f"sampled {n} of {len(records)} records (seed {seed})")


@_command("segment")
@_option("--in", "in_path", required=True, help="Answers JSONL with rst_tree.")
@_option("--out", "out_path", required=True)
@_option("--config", "config_path", default=None)
def segment_cmd(in_path, out_path, config_path):
    """Split each answer's discourse tree into action segments."""
    config = PipelineConfig.from_file(config_path)

    def run_one(record):
        tree = parse_rst_tree(record["rst_tree"])
        segments = segment_answer(tree, config.boundary, answer_id=record["answer_id"])
        return {
            "answer_id": record["answer_id"],
            "question_id": record.get("question_id"),
            "segments": [{"edu_indices": list(s.edu_indices), "text": s.text} for s in segments],
        }

    count = sum(1 for _ in _run_batch(in_path, out_path, run_one, "answer", "answer_id"))
    print(f"segmented {count} answers")


@_command("interp")
@_option("--in", "in_path", required=True, help="Questions JSONL.")
@_option("--out", "out_path", required=True, help="Interpretation spaces JSONL.")
@_option("--config", "config_path", required=True)
def interp_cmd(in_path, out_path, config_path):
    """Generate and deduplicate the interpretation space per question."""
    config = PipelineConfig.from_file(config_path)
    if not config.interp_generators or config.embedder is None:
        raise ValueError(f"config {config_path}: must define interp_generators and embedder")

    def run_one(record):
        space, warnings = build_space(
            question_id=record["post_id"],
            question=record["title"],
            community_context=record.get("community_context", ""),
            generator_backends=config.interp_generators,
            embedder=config.embedder,
            threshold=config.dedup_threshold,
        )
        doc = space.to_dict()
        if warnings:
            doc["warnings"] = warnings
        return doc

    count = sum(1 for _ in _run_batch(in_path, out_path, run_one, "question", "post_id",
                                      [*config.interp_generators, config.embedder]))
    print(f"built {count} interpretation spaces")


@_command("trace")
@_option("--in", "in_path", required=True, help="Answers JSONL with rst_tree.")
@_option("--questions", "questions_path", required=True, help="Questions JSONL.")
@_option("--spaces", "spaces_path", default=None, help="Interpretation spaces JSONL.")
@_option("--out", "out_path", required=True, help="Traces JSONL.")
@_option("--config", "config_path", required=True)
def trace_cmd(in_path, questions_path, spaces_path, out_path, config_path):
    """Produce the full discourse trace for each answer."""
    config = PipelineConfig.from_file(config_path)
    if config.act_labeler is None:
        raise ValueError(f"config {config_path}: must define act_labeler")
    ontology = load_ontology(config.ontology_path)
    questions = dict(corpus_io.read_corpus(
        questions_path, view=lambda r: (corpus_io.typed(r, "post_id", str), r["title"])))
    spaces = _read_spaces(spaces_path) if spaces_path else {}
    labeler = config.interp_labeler or config.act_labeler

    def run_one(record):
        if not isinstance(record["question_id"], str) or record["question_id"] not in questions:
            raise ValueError(f"question_id {record['question_id']!r} is not in --questions")
        question = questions[record["question_id"]]
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

    count = n_diag = 0
    for record in _run_batch(in_path, out_path, run_one, "answer", "answer_id",
                             [config.act_labeler, labeler]):
        count += 1
        n_diag += len(record["diagnostics"])
    print(f"traced {count} answers ({n_diag} diagnostics)")


def _raise_unknown_act_id(ontology, known: frozenset, ids: list):
    ontology.get(next(i for i in ids if i not in known))  # raises UnknownActId


def _act_sequences(path, ontology, family_level: bool) -> list:
    """The act ids of each trace at ``path``, checked against ``ontology`` so that an unknown
    one names its line, as families at ``family_level``; a file of no trace names itself."""
    known = frozenset(ontology.act_ids())

    def read(doc):
        ids = [s["act_id"] for s in doc.get("steps", ())]
        if not known.issuperset(ids):
            _raise_unknown_act_id(ontology, known, ids)
        return ids

    traces = corpus_io.read_corpus(path, view=read)
    if not traces:
        raise ValueError(f"{path}: need at least one trace")
    return project_families(traces, ontology) if family_level else traces


def _step_view(ontology):
    """A ``read_corpus`` view of a trace record as :func:`interpretation_metrics` reads it,
    ``(answer_id, question_id, [(act_id, interpretation_id), ...])``, so that a bad record
    names its line: the act ids are checked against ``ontology``, and the ids must be text
    (a question id may be absent, read as "", an interpretation id absent or null, read
    as None). Nothing else of the record is read."""
    known = frozenset(ontology.act_ids())

    def read(doc):
        steps = [(s["act_id"], s.get("interpretation_id")) for s in doc.get("steps", ())]
        act_ids = [act_id for act_id, _ in steps]
        if not known.issuperset(act_ids):
            _raise_unknown_act_id(ontology, known, act_ids)
        answer_id = corpus_io.typed(doc, "answer_id", str)
        question_id = corpus_io.typed(doc, "question_id", str, "")
        for _, iid in steps:
            if iid is not None and type(iid) is not str:
                corpus_io.of_type("interpretation_id", iid, str)  # raises TypeError
        return answer_id, question_id, steps
    return read


def _read_spaces(path) -> dict:
    spaces = corpus_io.read_corpus(path, view=InterpretationSpace.from_dict)
    return {space.question_id: space for space in spaces}


def _vocabulary(ontology, family_level: bool) -> list:
    if family_level:
        return sorted({a.family for a in ontology.acts if a.family}) + ["NONE"]
    return ontology.act_ids()


@_command("model")
@_option("--in", "in_path", required=True, help="Traces JSONL.")
@_option("--out", "out_path", required=True, help="Model JSON.")
@_option("--config", "config_path", default=None)
@_option("--family-level", action="store_true")
def model_cmd(in_path, out_path, config_path, family_level):
    """Fit a bigram strategy model over act sequences."""
    config = PipelineConfig.from_file(config_path)
    ontology = load_ontology(config.ontology_path)
    smoothing = config.smoothing
    model = fit_bigram(_act_sequences(in_path, ontology, family_level), smoothing,
                       vocabulary=_vocabulary(ontology, family_level))
    Path(out_path).write_text(json.dumps({
        "vocabulary": list(model.vocabulary),
        "counts": [[prev, nxt, c] for (prev, nxt), c in sorted(model.counts.items())],
        "smoothing": {"mode": smoothing.mode, "lambda": smoothing.lam},
        "training_sequences": model.training_sequences,
    }, indent=2), encoding="utf-8")
    print(f"fit bigram model over {model.training_sequences} traces")


@_command("compare")
@_option("--corpora", action="append", required=True,
              help="NAME=path pairs, split at the first '=' (or bare paths, named by "
                   "stem; an existing path is never split).")
@_option("--out", "out_path", required=True, help="Output CSV path.")
@_option("--json-out", default=None)
@_option("--long-csv-out", default=None)
@_option("--config", "config_path", default=None)
@_option("--family-level", action="store_true")
def compare_cmd(corpora, out_path, json_out, long_csv_out, config_path, family_level):
    """Cross-perplexity matrix across trace corpora."""
    config = PipelineConfig.from_file(config_path)
    ontology = load_ontology(config.ontology_path)
    named = {}
    for item in corpora:
        name, equals, path = item.partition("=")  # a path may hold "=" too
        if not equals or Path(item).exists():
            name, path = "", item
        name = name or Path(path).stem
        if name in named:
            raise ValueError(f"corpus name {name!r} is given twice")
        named[name] = _act_sequences(path, ontology, family_level)
    matrix = cross_perplexity_matrix(named, config.smoothing,
                                     vocabulary=_vocabulary(ontology, family_level))
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        matrix.write_csv(handle)
    if json_out:
        Path(json_out).write_text(matrix.to_json(), encoding="utf-8")
    if long_csv_out:
        with open(long_csv_out, "w", encoding="utf-8", newline="") as handle:
            matrix.write_long_csv(handle)
    print(f"wrote {len(named)}x{len(named)} cross-perplexity matrix")


@_command("metrics")
@_option("--in", "in_path", required=True, help="Traces JSONL.")
@_option("--spaces", "spaces_path", required=True)
@_option("--out", "out_path", required=True, help="Metrics JSON.")
@_option("--config", "config_path", default=None)
def metrics_cmd(in_path, spaces_path, out_path, config_path):
    """Coverage, dedication, and unmatched-rate aggregates.

    Of each trace only the answer, question, act and interpretation ids are read."""
    config = PipelineConfig.from_file(config_path)
    ontology = load_ontology(config.ontology_path)
    traces = corpus_io.read_corpus(in_path, view=_step_view(ontology))
    spaces = _read_spaces(spaces_path)
    report = interpretation_metrics(traces, spaces, ontology)
    coverages = list(report.coverage.values())
    dedications = list(report.dedication.values())
    Path(out_path).write_text(_two_level_json({
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
    }), encoding="utf-8")
    print(f"computed metrics for {len(traces)} traces")


def _two_level_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` for a non-empty dict whose values are scalars or dicts
    of scalars, with each inner dict written by json's C encoder: ``indent`` selects the
    Python one, twice as slow on a large report."""
    def value(v):
        if not isinstance(v, dict) or not v:
            return json.dumps(v)
        return "{\n    " + json.dumps(v, separators=(",\n    ", ": "))[1:-1] + "\n  }"

    return "{\n  " + ",\n  ".join(f"{json.dumps(k)}: {value(v)}" for k, v in doc.items()) + "\n}"


def _nonempty_text(reply: str) -> str:
    if not reply.strip():
        raise UnparsableResponse("the reply is empty")
    return reply


@_command("mimic-answer")
@_option("--in", "in_path", required=True, help="Questions JSONL.")
@_option("--out", "out_path", required=True, help="Generated answers JSONL.")
@_option("--config", "config_path", required=True)
@_option("--subreddit", required=True)
@_option("--explanation", required=True)
@_option("--guidelines-file", required=True)
@_option("--max-tokens", type=int, default=1000)
def mimic_cmd(in_path, out_path, config_path, subreddit, explanation,
              guidelines_file, max_tokens):
    """Generate answers as a member of a community, via its guidelines."""
    if max_tokens < 1:
        raise ValueError(f"--max-tokens must be at least 1, not {max_tokens}")
    config = PipelineConfig.from_file(config_path)
    backend = config.answer_generator
    if backend is None:
        raise ValueError(f"config {config_path}: must define answer_generator")
    guidelines = Path(guidelines_file).read_text(encoding="utf-8")

    def run_one(record):
        request = build_mimic_prompt(
            question=record["title"],
            subreddit_name=subreddit,
            subreddit_explanation=explanation,
            guidelines=guidelines,
            model_name=backend.model,
            max_tokens=max_tokens,
        )
        text = gateway.ask(backend, request, _nonempty_text)
        return {"question_id": record["post_id"], "answer_text": text, "generator": backend.name}

    count = sum(1 for _ in _run_batch(in_path, out_path, run_one, "question", "post_id",
                                      [backend]))
    print(f"generated {count} mimic answers")


if __name__ == "__main__":
    main()
