"""Every subcommand, given a record with one field of the wrong shape, exits cleanly.

One field of one record (or of the config, ontology or fixture file) at a time
is set to each of ``VALUES``; each input runs in-process through ``invoke_cli``.
Every run must end in ``SystemExit`` 0, 1 or 2; exit 2 only on a fixture miss;
and every exit-1 message must name the line, the record or the config file. An
exit-1 message that names a line, or one on a broken ontology or fixture, must name
the file that was changed.
"""

import copy
import json
import re

import pytest

from discotrace import gateway, load_ontology
from discotrace.errors import FixtureMiss
from discotrace.gateway import append_fixture, load_fixture, text_digest

from conftest import invoke_cli, leaf, node, write_jsonl

VALUES = [7, None, [], {}, "x", True, -1]

ACT = "action_AQ_assert_answer"


def _mock(name):
    return {"kind": "mock", "name": name, "model": name, "fixture_path": "fixture.jsonl"}


CONFIG = {
    "act_labeler": _mock("act"),
    "interp_labeler": _mock("interp"),
    "interp_generators": [_mock("gen_a"), _mock("gen_b")],
    "embedder": _mock("embed"),
    "answer_generator": _mock("mimic"),
    "ontology_path": "ontology.json",
    "boundary": {"boundary_pairs": [["Contrast", "NN"]], "min_span_k": 3},
    "smoothing": {"mode": "add_lambda", "lambda": 1.0},
    "dedup_threshold": 0.85,
}

REPLIES = {
    "act": json.dumps([{"action_id": ACT}]),
    "interp": json.dumps([{"interpretation_id": "id_1"}]),
    "gen_a": "1. Physically, why?\n2. Why not violet?",
    "gen_b": "1. Why not violet?",
    "mimic": "Because of scattering.",
}


def _space(question_id):
    return {"question_id": question_id, "threshold": 0.85, "members": [
        {"id": "id_1", "text": "Physically, why?", "sources": ["gen_a"]},
        {"id": "id_2", "text": "Why not violet?", "sources": ["gen_a", "gen_b"]}]}


def _trace(answer_id, question_id):
    return {"answer_id": answer_id, "question_id": question_id, "diagnostics": ["d"], "steps": [
        {"act_id": ACT, "edu_indices": [0], "interpretation_id": "id_1"},
        {"act_id": "action_AQ_provide_example", "edu_indices": [1]}]}


def _answer(answer_id, question_id):
    return {"answer_id": answer_id, "question_id": question_id,
            "text": "Light scatters. Red passes.",
            "rst_tree": node("Contrast", "NN", leaf("Light scatters."), leaf("Red passes."))}


# Input files by role; the last record of each is the one changed.
INPUTS = {
    "raw": [{"post_id": f"p{i}", "title": "Why did the Roman Empire split in two?", "score": 10,
             "community": "AskHistorians", "profanity_prob": 0.0, "created_at": "2024",
             "comments": [{"comment_id": f"c{j}", "text": "t", "score": 3, "top_level": True}
                          for j in range(5)]} for i in (1, 2)],
    "questions": [{"post_id": "q1", "title": "Why is the sky blue?", "community_context": ""},
                  {"post_id": "q2", "title": "Why is grass green?", "community_context": "c"}],
    "answers": [_answer("a1", "q1"), _answer("a2", "q2")],
    "spaces": [_space("q1"), _space("q2")],
    "traces": [_trace("a1", "q1"), _trace("a2", "q2")],
}

# The field that names a record of each role.
ID_KEYS = {"raw": "post_id", "questions": "post_id", "answers": "answer_id",
           "spaces": "question_id", "traces": "answer_id"}

# Each command's arguments; "{d}" stands for the directory of its files.
COMMANDS = {
    "filter": ["--in", "{d}/raw.jsonl", "--out", "{d}/out.jsonl"],
    "sample": ["--in", "{d}/questions.jsonl", "--out", "{d}/out.jsonl", "--n", "2"],
    "segment": ["--in", "{d}/answers.jsonl", "--out", "{d}/out.jsonl",
                "--config", "{d}/config.json"],
    "interp": ["--in", "{d}/questions.jsonl", "--out", "{d}/out.jsonl",
               "--config", "{d}/config.json"],
    "trace": ["--in", "{d}/answers.jsonl", "--questions", "{d}/questions.jsonl",
              "--spaces", "{d}/spaces.jsonl", "--out", "{d}/out.jsonl",
              "--config", "{d}/config.json"],
    "model": ["--in", "{d}/traces.jsonl", "--out", "{d}/out.json",
              "--config", "{d}/config.json"],
    "compare": ["--corpora", "a={d}/traces.jsonl", "--corpora", "b={d}/other.jsonl",
                "--out", "{d}/out.csv", "--config", "{d}/config.json"],
    "metrics": ["--in", "{d}/traces.jsonl", "--spaces", "{d}/spaces.jsonl",
                "--out", "{d}/out.json", "--config", "{d}/config.json"],
    "mimic-answer": ["--in", "{d}/questions.jsonl", "--out", "{d}/out.jsonl",
                     "--config", "{d}/config.json", "--subreddit", "s", "--explanation", "e",
                     "--guidelines-file", "{d}/rules.md"],
}

# (command, role of the file whose last record is changed)
TARGETS = [
    ("filter", "raw"), ("sample", "questions"), ("segment", "answers"),
    ("interp", "questions"), ("trace", "answers"), ("trace", "questions"),
    ("trace", "spaces"), ("model", "traces"), ("compare", "traces"),
    ("metrics", "traces"), ("metrics", "spaces"), ("mimic-answer", "questions"),
]

# The command that reads each top-level config key; "trace" for the rest.
CONFIG_COMMANDS = {"interp_generators": "interp", "embedder": "interp",
                   "dedup_threshold": "interp", "answer_generator": "mimic-answer"}


def field_paths(value, prefix=()):
    """Every key path into a JSON value, outermost first."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def run(directory, command):
    args = [arg.format(d=directory) for arg in COMMANDS[command]]
    return invoke_cli([command, *args])


def write_inputs(directory, config=CONFIG, **changed):
    for role, records in INPUTS.items():
        write_jsonl(directory / f"{role}.jsonl", changed.get(role, records))
    write_jsonl(directory / "other.jsonl", INPUTS["traces"])
    (directory / "config.json").write_text(json.dumps(config))


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A directory where every command succeeds, its fixture recorded by a first run."""
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "ontology.json").write_text(json.dumps(load_ontology().to_dict()))
    (directory / "rules.md").write_text("Be thorough.")
    write_inputs(directory)
    fixture = directory / "fixture.jsonl"
    fixture.touch()
    complete, embed = gateway.complete, gateway.embed

    def recording_complete(backend, request):
        try:
            return complete(backend, request)
        except FixtureMiss as miss:
            append_fixture(fixture, miss.digest, REPLIES[backend.name])
            return REPLIES[backend.name]

    def recording_embed(backend, texts):
        for text in texts:
            digest = text_digest(backend.model, text)
            if digest not in load_fixture(fixture):
                append_fixture(fixture, digest, json.dumps([1.0, len(text) % 3, 0.5]))
        return embed(backend, texts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gateway, "complete", recording_complete)
        patch.setattr(gateway, "embed", recording_embed)
        for command in COMMANDS:
            result = run(directory, command)
            assert result.exit_code == 0, (command, result.output)
    return directory


def check(result, names, path):
    """Why this run breaks the contract, or None when it keeps it; ``path`` is the file
    that was changed, which an exit-1 message that names a line of a file ("line N: ", not
    the "line 1 column 5" of a field's JSON text) must name too."""
    if not isinstance(result.exception, (SystemExit, type(None))):
        return f"uncaught {result.exception!r}"
    if result.exit_code not in (0, 1, 2):
        return f"exit {result.exit_code}"
    if result.exit_code == 2 and "no fixture entry for request digest" not in result.stderr:
        return f"exit 2 without a fixture miss: {result.stderr!r}"
    if result.exit_code == 1 and not (re.search(r"\bline \d+\b", result.stderr)
                                      or any(name in result.stderr for name in names)):
        return f"exit 1 names no line, record or config: {result.stderr!r}"
    if (result.exit_code == 1 and re.search(r"\bline \d+: ", result.stderr)
            and path not in result.stderr):
        return f"exit 1 names a line but not {path}: {result.stderr!r}"
    return None


@pytest.mark.parametrize("command, role", TARGETS)
def test_a_field_of_the_wrong_shape_never_ends_in_a_traceback(base, tmp_path, command, role):
    for name in ("fixture.jsonl", "ontology.json", "rules.md"):
        (tmp_path / name).write_bytes((base / name).read_bytes())
    *kept, last = INPUTS[role]
    names = [f"'{last[ID_KEYS[role]]}'", f"#{len(INPUTS[role])}"]
    broken = []
    for path in field_paths(last):
        for value in VALUES:
            write_inputs(tmp_path, **{role: [*kept, replaced(last, path, value)]})
            problem = check(run(tmp_path, command), names, str(tmp_path / f"{role}.jsonl"))
            if problem:
                broken.append(f"{path}={value!r}: {problem}")
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("key", list(CONFIG))
def test_a_config_field_of_the_wrong_shape_never_ends_in_a_traceback(base, tmp_path, key):
    for name in ("fixture.jsonl", "ontology.json", "rules.md"):
        (tmp_path / name).write_bytes((base / name).read_bytes())
    config = tmp_path / "config.json"
    command = CONFIG_COMMANDS.get(key, "trace")
    broken = []
    for path in [(key,), *field_paths(CONFIG[key], (key,))]:
        for value in VALUES:
            write_inputs(tmp_path, config=replaced(CONFIG, path, value))
            problem = check(run(tmp_path, command), [str(config)], str(config))
            if problem:
                broken.append(f"{path}={value!r}: {problem}")
    assert not broken, "\n".join(broken)


# Each file the config names, and the commands that read it.
NAMED_FILES = {"ontology.json": ["trace", "metrics"], "fixture.jsonl": ["interp", "trace"]}


def variants(name, text):
    """``text`` of the file ``name`` with one field of the ontology's last act, or of the
    fixture's first record, set to each of ``VALUES``."""
    if name == "ontology.json":
        doc = json.loads(text)
        for path in field_paths(doc["acts"][-1], ("acts", len(doc["acts"]) - 1)):
            for value in VALUES:
                yield path, value, json.dumps(replaced(doc, path, value))
    else:
        first, *rest = text.splitlines(keepends=True)
        record = json.loads(first)
        for path in field_paths(record):
            for value in VALUES:
                yield path, value, json.dumps(replaced(record, path, value)) + "\n" + "".join(rest)


@pytest.mark.parametrize("name", list(NAMED_FILES))
def test_a_field_of_the_wrong_shape_in_a_named_file_never_ends_in_a_traceback(base, tmp_path,
                                                                               name):
    for other in ("fixture.jsonl", "ontology.json", "rules.md"):
        (tmp_path / other).write_bytes((base / other).read_bytes())
    write_inputs(tmp_path)
    target = tmp_path / name
    named = str(target.resolve())
    broken = []
    for path, value, text in variants(name, (base / name).read_text()):
        target.write_text(text)
        for command in NAMED_FILES[name]:
            result = run(tmp_path, command)
            problem = check(result, [named], named)
            if not problem and result.exit_code == 1 and named not in result.stderr:
                problem = f"exit 1 does not name {name}: {result.stderr!r}"
            if problem:
                broken.append(f"{command} {path}={value!r}: {problem}")
    assert not broken, "\n".join(broken)
