"""Properties of the input contract, after Claessen and Hughes, QuickCheck
(ICFP 2000).

Every file bbgc reads comes from outside the program: stores, wire frames,
source specs, reports, mixtures and plans.  Each is mutated here at random,
and each result must either load or end in a ``BbgcError`` from its loader;
a command given one must exit 0, 3, 4 or 5, and a failing command prints one
``error:`` line and no traceback.  A numeric field the loader reads that is
replaced by a value of another type is always malformed: its loader must
refuse it, and its command must exit 3.

Runs are derandomized with fixed example counts and keep no example
database, so the module checks the same cases on every run; what Hypothesis
caches goes to a temporary directory, not the working one.  The
``@example`` cases are inputs that once got through a loader or ended in a
traceback.
"""

import atexit
import contextlib
import copy
import io
import json
import math
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from bbgc.cli import _read_report, main
from bbgc.errors import BbgcError
from bbgc.gmm import load_mixture
from bbgc.importance import load_plan
from bbgc.source import load_source_spec, non_unit_row, open_source, pack_frame, unpack_frame
from bbgc.store import read_store

SPEC = {
    "kind": "synthetic",
    "latent_dim": 2,
    "embed_dim": 16,
    "seed": 11,
    "parameters": {
        "background": [{"weight": 1.0, "spread": 10.0}],
        "planted": [{"mass": 0.1, "spread": 0.0, "latent_norm": 0.0}],
    },
}


def _checks(n: int):
    return settings(max_examples=n, derandomize=True, database=None, deadline=None)


# Hypothesis caches the constants of local modules while pytest collects, so
# its storage moves before then, out of the working directory.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="bbgc-hypothesis-")
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A spec, two stores, a report with curves, a plan and a mixture, as
    the commands write them, with each JSON file's parsed document."""
    root = tmp_path_factory.mktemp("props")
    paths = {name: str(root / name) for name in
             ("spec.json", "anchors.bbgc", "pool.bbgc", "report.json", "plan.json",
              "mixture.json")}
    with open(paths["spec.json"], "w") as fh:
        json.dump(SPEC, fh)
    for role, n in (("anchors", 40), ("pool", 400)):
        assert main(["sample", "--source", paths["spec.json"], "--n", str(n), "--role", role,
                     "--seed", "3", "--out", paths[f"{role}.bbgc"]]) == 0
    assert main(["diagnose", "--anchors", paths["anchors.bbgc"], "--pool", paths["pool.bbgc"],
                 "--curve-sizes", "10,40", "--k", "4", "--out", paths["report.json"]]) == 0
    assert main(["calibrate", "is", "--anchors", paths["anchors.bbgc"],
                 "--pool", paths["pool.bbgc"], "--report", paths["report.json"],
                 "--hull-size", "20", "--out", paths["plan.json"]]) == 0
    assert main(["calibrate", "gmm", "--source", paths["spec.json"],
                 "--anchors", paths["anchors.bbgc"], "--report", paths["report.json"],
                 "--kmeans-k", "4", "--n-fit", "400", "--out", paths["mixture.json"]]) == 0
    docs = {}
    for kind in ("spec", "report", "plan", "mixture"):
        with open(paths[f"{kind}.json"]) as fh:
            docs[kind] = json.load(fh)
    return {"root": root, "paths": paths, "docs": docs}


# -- documents and their edits -------------------------------------------------------

def _open_spec(path: str) -> None:
    open_source(load_source_spec(path)).close()


LOADERS = {"spec": _open_spec, "report": _read_report, "plan": load_plan,
           "mixture": load_mixture}

# Fields each loader reads as JSON integers; every other number it reads is
# any finite JSON number.  Position 0 of a curve point is its size.
INTEGER_KEYS = {"latent_dim", "embed_dim", "seed", "k", "source_seed", "max_iters",
                "hull_size", "index", "dense_count", "ref_count", "mode_index",
                "anchor_index", "rows", "cols"}


def _paths(node, at=()):
    """Every path from the root to a node of a parsed JSON document."""
    yield at
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, at + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, at + (i,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _read_numbers(kind: str, doc) -> list[tuple]:
    """Paths to the numbers that ``kind``'s loader reads."""
    out = []
    for path in _paths(doc):
        value = _get(doc, path)
        if type(value) not in (int, float) or not path or path[0] in ("schema", "provenance"):
            continue
        if kind == "report" and not (
                path == ("radius",) or path[0] == "curves" and "points" in path
                or path[0] == "top_k" and path[-1] in ("anchor_index", "mccs")):
            continue
        out.append(path)
    return out


def _is_integer_field(path: tuple) -> bool:
    return path[-1] in INTEGER_KEYS or ("points" in path and path[-1] == 0)


def _edited(doc, path: tuple, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``, or
    removed when ``value`` is ``_DELETE``; the root path replaces the document."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = _get(doc, path[:-1])
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


_DELETE = object()

NOT_NUMBERS = st.sampled_from([None, True, False, "7", "2.5", "x", "", [], [1.0], {},
                               {"a": 1}, math.nan, math.inf, -math.inf])
# Strings come from a fixed set: st.text() would make Hypothesis build its
# character tables, over a second, in each run's fresh storage directory.
STRINGS = st.sampled_from(["", "x", "7", "2.5", "NaN", "null", "\u00e9", "kind", "k", "entries"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.floats(allow_nan=True, allow_infinity=True) | STRINGS
    | st.sampled_from([0, -1, 1, 7, 2.9, 10 ** 400, 1e308, 2 ** 64]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(STRINGS, inner, max_size=3),
    max_leaves=6)


def _write(base, name: str, doc) -> str:
    path = str(base["root"] / name)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))   # NaN and infinities travel as NaN and Infinity
    return path


def _wrong_type_case(base, kind: str, pick: int, value, integer_value) -> tuple:
    """(path, edited document) for a number that ``kind``'s loader reads,
    replaced by a value of another type."""
    doc = base["docs"][kind]
    numbers = _read_numbers(kind, doc)
    path = numbers[pick % len(numbers)]
    if _is_integer_field(path) and integer_value is not None:
        value = integer_value   # a float where a JSON integer belongs
    return path, _edited(doc, path, value)


WRONG_TYPE_EXAMPLES = [
    # a non-finite count overflowed int(); a numeric string and a fraction were taken
    ("plan", ("entries", 0, "dense_count"), math.inf),
    ("plan", ("entries", 0, "dense_count"), "7"),
    ("plan", ("hull_size",), 2.9),
    ("mixture", ("source_seed",), math.inf),
]


def _pin_wrong_types(test):
    for kind, path, value in WRONG_TYPE_EXAMPLES:
        test = example(kind=kind, pick=path, value=value, integer_value=None)(test)
    return test


def _case(base, kind, pick, value, integer_value):
    if isinstance(pick, tuple):   # an @example names its path
        return pick, _edited(base["docs"][kind], pick, value)
    return _wrong_type_case(base, kind, pick, value, integer_value)


@_pin_wrong_types
@given(kind=st.sampled_from(sorted(LOADERS)), pick=st.integers(0, 10 ** 6), value=NOT_NUMBERS,
       integer_value=st.sampled_from([None, 2.9, 7.0, -0.5]))
@_checks(150)
def test_loaders_refuse_a_read_number_of_another_type(base, kind, pick, value, integer_value):
    _, doc = _case(base, kind, pick, value, integer_value)
    with pytest.raises(BbgcError):
        LOADERS[kind](_write(base, f"typed.{kind}.json", doc))


@given(kind=st.sampled_from(sorted(LOADERS)), pick=st.integers(0, 10 ** 6),
       value=JSON_VALUES | st.just(_DELETE), cut=st.integers(0, 10 ** 6) | st.none())
@_checks(150)
def test_loaders_end_any_edit_in_a_bbgc_error(base, kind, pick, value, cut):
    doc = base["docs"][kind]
    paths = list(_paths(doc))
    path = paths[pick % len(paths)]
    if value is _DELETE and (not path or isinstance(path[-1], int)):
        value = None
    text = json.dumps(_edited(doc, path, value))
    if cut is not None:
        text = text[:cut % (len(text) + 1)]
    file = str(base["root"] / f"any.{kind}.json")
    with open(file, "w") as fh:
        fh.write(text)
    try:
        LOADERS[kind](file)
    except BbgcError:
        pass


@example(kind="plan", field="latent_dim", shift=5)   # 7 over 2-d vertices
@example(kind="plan", field="entries", shift=0)
@given(kind=st.sampled_from(["plan", "mixture"]), field=st.sampled_from(["latent_dim", "k"]),
       shift=st.integers(-4, 6).filter(bool))
@_checks(20)
def test_loaders_refuse_a_misstated_shape(base, kind, field, shift):
    """A plan's latent_dim, or a mixture's k or latent_dim, off by ``shift``
    from its arrays; or a plan without entries."""
    doc = copy.deepcopy(base["docs"][kind])
    if field == "entries":
        doc["entries"] = []
    elif field in doc:
        doc[field] += shift
    else:   # a plan states no k
        doc["latent_dim"] += shift
    with pytest.raises(BbgcError):
        LOADERS[kind](_write(base, f"shape.{kind}.json", doc))


# -- stores and frames ------------------------------------------------------------------

@given(data=st.data())
@_checks(100)
def test_store_and_frame_readers_end_any_byte_edit_in_a_bbgc_error(base, data):
    with open(base["paths"]["anchors.bbgc"], "rb") as fh:
        blob = bytearray(fh.read())
    frame = bytearray(pack_frame(np.eye(3, 16), as_latents=False))
    for target in (blob, frame):
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(target) - 1))
            target[at] = data.draw(st.integers(0, 255))
        cut = data.draw(st.integers(0, len(target)))
        del target[cut:cut + data.draw(st.integers(0, 64))]
    path = str(base["root"] / "bytes.bbgc")
    with open(path, "wb") as fh:
        fh.write(blob)
    for read in (lambda: read_store(path), lambda: unpack_frame(bytes(frame))):
        try:
            read()
        except BbgcError:
            pass


# -- commands -----------------------------------------------------------------------------

def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _argv(base, kind: str, path: str) -> list[str]:
    p = base["paths"]
    out = str(base["root"] / "out.json")
    if kind == "spec":
        return ["sample", "--source", path, "--n", "5", "--out", str(base["root"] / "s.bbgc")]
    if kind == "report":
        return ["calibrate", "is", "--anchors", p["anchors.bbgc"], "--pool", p["pool.bbgc"],
                "--report", path, "--hull-size", "20", "--out", out]
    return ["evaluate", "--source", p["spec.json"], "--model", path, "--anchors", "10",
            "--pool", "50", "--out", out]


def _assert_clean(code: int, err: str) -> None:
    assert code in (0, 3, 4, 5), err
    assert "Traceback" not in err and (code == 0 or err.startswith("error: ")), err


@_pin_wrong_types
@given(kind=st.sampled_from(sorted(LOADERS)), pick=st.integers(0, 10 ** 6), value=NOT_NUMBERS,
       integer_value=st.sampled_from([None, 2.9]))
@_checks(40)
def test_commands_exit_3_on_a_read_number_of_another_type(base, kind, pick, value,
                                                         integer_value):
    _, doc = _case(base, kind, pick, value, integer_value)
    code, err = _run(_argv(base, kind, _write(base, f"cmd.{kind}.json", doc)))
    _assert_clean(code, err)
    assert code == 3, err


@example(kind="report", pick=("top_k",), value=[])   # an empty mode list
@example(kind="plan", pick=("latent_dim",), value=7)
@example(kind="plan", pick=("entries",), value=[])
@given(kind=st.sampled_from(sorted(LOADERS)), pick=st.integers(0, 10 ** 6),
       value=JSON_VALUES)
@_checks(60)
def test_commands_end_any_edit_cleanly(base, kind, pick, value):
    doc = base["docs"][kind]
    if isinstance(pick, tuple):
        path = pick
    else:
        paths = list(_paths(doc))
        path = paths[pick % len(paths)]
    file = _write(base, f"edit.{kind}.json", _edited(doc, path, value))
    code, err = _run(_argv(base, kind, file))
    _assert_clean(code, err)
    if isinstance(pick, tuple):
        assert code == 3, err
    if kind == "report":   # the table writer reads the same fields as calibrate
        code, err = _run(["report", "--report", file, "--out", str(base["root"] / "tables")])
        _assert_clean(code, err)


@given(data=st.data())
@_checks(30)
def test_diagnose_accepts_only_stores_it_can_score(base, data):
    with open(base["paths"]["anchors.bbgc"], "rb") as fh:
        blob = bytearray(fh.read())
    for _ in range(data.draw(st.integers(1, 3))):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    path = str(base["root"] / "anchors.mut.bbgc")
    with open(path, "wb") as fh:
        fh.write(blob)
    code, err = _run(["diagnose", "--anchors", path, "--pool", base["paths"]["pool.bbgc"],
                      "--k", "4", "--out", str(base["root"] / "d.json")])
    _assert_clean(code, err)
    if code == 0:
        store = read_store(path)
        assert non_unit_row(store.embeddings) is None and np.all(np.isfinite(store.latents))
