"""Property tests for the case and data file parsers.

Whatever a file holds, a parser either returns or raises its documented
error: CaseFileError (or NetworkError, for a well-formed case describing an
invalid network) from load_case, and CaseFileError from the measurement and
plan readers. The contents are arbitrary bytes, arbitrary text, or a valid
file with a few cells replaced by adversarial ones. Examples are
derandomized so the suite stays deterministic.
"""
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from gridse.network import NetworkError
from gridse.scenario import (
    MEASUREMENT_COLUMNS,
    CaseFileError,
    builtin_case_dir,
    load_case,
    read_measurements_csv,
    read_plan_csv,
)

IEEE14 = builtin_case_dir("ieee14")
PROFILE = settings(derandomize=True, max_examples=150, deadline=None, database=None)

CELLS = st.one_of(
    st.sampled_from(["", "0", "1", "-1", "2", "14", "1.0", "0.1", "nan", "inf", "-inf", "1e999",
                     "1_0", " 3 ", "pq", "pv", "slack", "v_mag", "p_inj", "q_flow", "from", "to",
                     '"', '"a,b"', "\r", "\x00"]),
    st.floats().map(repr),
    st.integers(-3, 30).map(str),
    st.text(max_size=6),
)
MEASUREMENTS_CSV = (",".join(MEASUREMENT_COLUMNS) + "\n"
                    "v_mag,1,,,1.06,0.004\np_inj,2,,,0.183,0.01\nq_flow,,3,to,-0.02,0.008\n")


def csv_contents(valid: str):
    """A valid file with a few cells replaced or appended, or arbitrary text or bytes.

    Editing a valid file keeps most rows well formed, so the checks deep in a
    parser are reached, not only the header check.
    """
    rows = [line.split(",") for line in valid.splitlines()]
    edit = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(rows[0])), CELLS)

    def apply(edits):
        out = [list(row) for row in rows]
        for i, j, cell in edits:
            out[i][j:j + 1] = [cell]
        return "\n".join(",".join(row) for row in out) + "\n"

    return st.one_of(st.lists(edit, min_size=1, max_size=3).map(apply), st.text(max_size=80), st.binary(max_size=80))


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), st.integers(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)
META = st.fixed_dictionaries({}, optional={
    "base_mva": JSON_VALUES,
    "version": JSON_VALUES,
    "bus_load_weights": st.one_of(JSON_VALUES, st.dictionaries(st.sampled_from(["1", "3", "14", "15", "0", "x", "2.5"]),
                                                              JSON_VALUES, max_size=3)),
})
CASE_JSON = st.one_of(META.map(json.dumps), JSON_VALUES.map(json.dumps), st.text(max_size=80), st.binary(max_size=80))


def _write(path: Path, content) -> None:
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")


def _load_case_with(name: str, content) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        case = Path(tmp)
        for shipped in ("buses.csv", "lines.csv", "case.json"):
            _write(case / shipped, content if shipped == name else (IEEE14 / shipped).read_text())
        try:
            load_case(case)
        except (CaseFileError, NetworkError):
            pass


def _read_with(reader, content) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        _write(path, content)
        try:
            reader(path)
        except CaseFileError:
            pass


@PROFILE
@given(csv_contents((IEEE14 / "buses.csv").read_text()))
def test_load_case_buses_csv(content):
    _load_case_with("buses.csv", content)


@PROFILE
@given(csv_contents((IEEE14 / "lines.csv").read_text()))
def test_load_case_lines_csv(content):
    _load_case_with("lines.csv", content)


@PROFILE
@given(CASE_JSON)
def test_load_case_case_json(content):
    _load_case_with("case.json", content)


@PROFILE
@given(csv_contents(MEASUREMENTS_CSV))
def test_read_measurements_csv(content):
    _read_with(read_measurements_csv, content)


@PROFILE
@given(csv_contents(MEASUREMENTS_CSV))
def test_read_plan_csv(content):
    _read_with(read_plan_csv, content)
