"""The trace and verdict-log readers, swept by a fixed table of line edits.

Each case is a three-line file: a valid trace or log with one edit on its
first, middle or last line.  An edit sets one field to a raw JSON token (or
to text that is not JSON), drops one field, or replaces the whole line.  The
case's result is what ``read_trace`` or ``read_verdicts`` gives: the records
read, or the text of the ``TraceParseError`` raised, which names the line.
``data/reader_sweep.json`` holds the recorded result of every case, so a
change to any record, message or the order in which the checks run fails
here.

Run this file as a script to record the table again from the readers of the
checkout it runs in.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from botguard.cli import read_verdicts
from botguard.errors import TraceParseError
from botguard.simulate import MAX_SOURCE_REF_CHARS, TRACE_FIELDS, read_trace

TABLE = Path(__file__).parent / "data" / "reader_sweep.json"

# the raw text of a field's value: JSON of every type, the edges of the
# number types, and text json refuses
TOKENS = {
    "zero": "0", "neg-zero-int": "-0", "one": "1", "neg-one": "-1",
    "two": "2", "float": "1.5", "neg-zero": "-0.0", "tiny": "5e-324",
    "max-float": "1.7976931348623157e308", "past-max-float": "1e999",
    "past-min-float": "-1e999", "nan": "NaN", "inf": "Infinity",
    "neg-inf": "-Infinity", "2**64": str(2 ** 64),
    "below-int64": str(-(2 ** 63) - 1), "101-digits": "1" * 101,
    "400-digits": "9" * 400, "true": "true", "false": "false", "null": "null",
    "empty-str": '""', "str": '"x"', "legit": '"legit"', "irc_bot": '"irc_bot"',
    "allow": '"allow"', "block": '"block"', "fight_back": '"fight_back"',
    "lone-surrogate": '"\\ud800"', "escaped-non-ascii": '"\\u00e9"',
    "utf8-non-ascii": '"é"', "empty-list": "[]", "int-list": "[1, 2]",
    "bool-list": "[true]", "float-list": "[1.0]", "empty-object": "{}",
    "nested": '{"a": [null, {"b": 1}]}',
    "over-source-bound": '"' + "a" * (MAX_SOURCE_REF_CHARS - 1) + '"',
    "bad-token": "tru", "leading-zero": "01", "unterminated": '"x',
}

# whole lines put in place of a line
LINES = {
    "blank": "", "spaces": " \t ", "number": "5", "null": "null", "list": "[]",
    "string": '"x"', "open-brace": "{", "two-objects": "{} {}", "nan": "NaN",
    "empty-object": "{}",
}

TRACE = [
    {"flow_id": 5, "timestamp": 0.5, "source_ref": "host-000", "dest_ref": "svc-0",
     "protocol_tag": "HTTP", "bytes_total": 1000.0, "duration": 2.0,
     "ground_truth": "legit"},
    {"flow_id": 6, "timestamp": 1.0, "source_ref": "bot-000", "dest_ref": "c2-entry",
     "protocol_tag": "IRC", "bytes_total": 2.5e6, "duration": 1.25,
     "ground_truth": "irc_bot"},
    {"flow_id": 7, "timestamp": 1.5, "source_ref": "host-001", "dest_ref": "svc-3",
     "protocol_tag": "OTHER", "bytes_total": 0.0, "duration": 0.5,
     "ground_truth": "legit"},
]

LOG = [
    {"decided_at": 0.5, "session_id": "s-0000", "source_ref": "host-000",
     "verdict": "allow", "evidence_ids": [], "link_id": 5},
    {"decided_at": 3.0, "session_id": "s-0001", "source_ref": "bot-000",
     "verdict": "block", "evidence_ids": [6], "link_id": 6},
    {"decided_at": 3.0, "session_id": "s-0001", "source_ref": "bot-000",
     "verdict": "fight_back", "evidence_ids": [6], "link_id": 6},
]


def trace_fields(flow):
    return {name: getattr(flow, name) for name in TRACE_FIELDS}


# each kind of file: its reader, its unedited records and the fields of a
# record the reader gives
KINDS = {"trace": (read_trace, TRACE, trace_fields), "log": (read_verdicts, LOG, dict)}


def line_text(fields):
    """A line of ``fields``, a dict of field names to raw value text."""
    return "{" + ", ".join(f'"{name}": {text}' for name, text in fields.items()) + "}"


def cases(kind):
    """``(case id, lines)`` for each edit of the three-line file of ``kind``."""
    raws = [{name: json.dumps(value) for name, value in record.items()}
            for record in KINDS[kind][1]]

    def edited(index, line):
        return [line if i == index else line_text(raw) for i, raw in enumerate(raws)]

    for index, raw in enumerate(raws):
        where = f"{kind}/{index + 1}"
        for name in raw:
            for token_id, token in TOKENS.items():
                yield f"{where}/{name}={token_id}", edited(
                    index, line_text({**raw, name: token}))
            yield f"{where}/{name} missing", edited(
                index, line_text({n: t for n, t in raw.items() if n != name}))
        for line_id, text in LINES.items():
            yield f"{where}/line={line_id}", edited(index, text)


def shown(text):
    """``text``, or when it is longer than 200 characters its start and the
    digest of the whole."""
    if len(text) <= 200:
        return text
    digest = hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()
    return f"{text[:100]}... sha256:{digest}"


def result(kind, lines, path):
    """What the reader of ``kind`` gives for ``lines``: the error text, or per
    record read, the fields whose value differs from the unedited record of
    its line (``None`` for a field it lacks)."""
    reader, records, fields = KINDS[kind]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    try:
        read = [fields(record) for record in reader(path)]
    except TraceParseError as exc:
        return shown(f"error: {exc}")
    return [{name: None if name not in record else shown(repr(record[name]))
             for name in base.keys() | record.keys()
             if name not in record or name not in base
             or repr(record[name]) != repr(base[name])}
            for record, base in zip(read, records + [{}])]


def record_table(work):
    return {case_id: result(kind, lines, work / "case.jsonl")
            for kind in KINDS for case_id, lines in cases(kind)}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_readers_match_the_recorded_table(tmp_path, kind):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    found = {case_id: result(kind, lines, tmp_path / "case.jsonl")
             for case_id, lines in cases(kind)}
    assert len(found) > 600
    assert found.keys() == {case_id for case_id in expected
                            if case_id.startswith(kind + "/")}
    assert {case_id: value for case_id, value in found.items()
            if expected[case_id] != value} == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        table = record_table(Path(work))
    TABLE.parent.mkdir(exist_ok=True)
    # one case a line
    TABLE.write_text("{\n" + ",\n".join(
        f"{json.dumps(case_id)}: {json.dumps(value, sort_keys=True)}"
        for case_id, value in sorted(table.items())) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(table)} cases to {TABLE}", file=sys.stderr)
