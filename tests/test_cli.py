"""End-to-end command-line pipelines and exit-code contracts."""

import builtins
import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

import bbgc
from bbgc import diagnosis
from bbgc.cli import main
from bbgc.errors import SourceUnavailableError
from bbgc.gmm import calibrate_gmm, load_mixture, sample_calibrated
from bbgc.importance import (
    ImportanceSamplingPlan,
    _finish_entry,
    build_plan,
    load_plan,
    reference_probes,
    sample_calibrated_is,
    save_plan,
)
from bbgc.jsonutil import read_json
from bbgc.rng import (
    STREAM_ANCHORS,
    STREAM_EVAL_ANCHORS,
    STREAM_EVAL_POOL,
    STREAM_POOL,
    CounterStream,
    derive_seed,
)
from bbgc.source import (
    SubprocessSource,
    SyntheticSource,
    build_synthetic_model,
    pack_frame,
    sample_latents,
    unpack_frame,
)
from bbgc.store import (
    HEADER,
    MAGIC,
    VERSION,
    SampleStore,
    StoreStream,
    latents_disjoint,
    read_store,
    record_dtype,
    write_store,
)

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


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared sampled stores and a diagnosis report."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "spec": root / "source.json",
        "anchors": root / "anchors.bbgc",
        "pool": root / "pool.bbgc",
        "report": root / "diagnosis.json",
    }
    paths["spec"].write_text(json.dumps(SPEC))
    assert main(["sample", "--source", str(paths["spec"]), "--n", "80",
                 "--role", "anchors", "--seed", "3", "--out", str(paths["anchors"])]) == 0
    assert main(["sample", "--source", str(paths["spec"]), "--n", "2500",
                 "--role", "pool", "--seed", "3", "--out", str(paths["pool"])]) == 0
    assert main(["diagnose", "--anchors", str(paths["anchors"]),
                 "--pool", str(paths["pool"]), "--curve-sizes", "10,40,400",
                 "--seed", "3", "--out", str(paths["report"])]) == 0
    return paths


def test_sample_writes_streamed_latents(pipeline):
    st = read_store(pipeline["pool"])
    assert st.count == 2500 and st.latent_dim == 2 and st.embed_dim == 16
    assert st.seed == 3
    want = CounterStream(3, STREAM_POOL).normal_rows(0, 2500, 2)
    np.testing.assert_array_equal(st.latents, want.astype(np.float32))
    np.testing.assert_allclose(np.linalg.norm(st.embeddings, axis=1), 1.0, atol=1e-4)

    anchors = read_store(pipeline["anchors"])
    lat_a = CounterStream(3, STREAM_ANCHORS).normal_rows(0, 80, 2)
    np.testing.assert_array_equal(anchors.latents, lat_a.astype(np.float32))
    assert latents_disjoint(anchors.latents, st.latents)


def test_diagnose_report_contents(pipeline):
    report = read_json(str(pipeline["report"]))
    assert report["schema"] == 1
    assert report["m"] == 80 and report["n"] == 2500
    assert len(report["top_k"]) == 24
    assert report["worst_mode"] == report["top_k"][0]
    # the planted mode swallows 10% of latent mass, so the dense anchor
    # must see far more neighbors than a background anchor would
    assert report["worst_mode"]["neighbor_count"] >= 150
    assert [c["kind"] for c in report["curves"]] == \
        ["mccs_single", "mu_mccs", "sigma_mccs"]


def test_diagnose_reruns_byte_identical(pipeline, tmp_path):
    out = tmp_path / "again.json"
    assert main(["diagnose", "--anchors", str(pipeline["anchors"]),
                 "--pool", str(pipeline["pool"]), "--curve-sizes", "10,40,400",
                 "--seed", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == pipeline["report"].read_bytes()


def test_find_modes_matches_report(pipeline, tmp_path):
    out = tmp_path / "modes.json"
    assert main(["find-modes", "--anchors", str(pipeline["anchors"]),
                 "--pool", str(pipeline["pool"]), "--out", str(out)]) == 0
    doc = read_json(str(out))
    report = read_json(str(pipeline["report"]))
    assert [m["anchor_index"] for m in doc["modes"]] == \
        [m["anchor_index"] for m in report["top_k"]]


def test_calibrate_gmm_and_evaluate(pipeline, tmp_path):
    model = tmp_path / "mixture.json"
    assert main(["calibrate", "gmm", "--source", str(pipeline["spec"]),
                 "--anchors", str(pipeline["anchors"]), "--report", str(pipeline["report"]),
                 "--kmeans-k", "8", "--n-fit", "2000", "--seed", "5",
                 "--out", str(model)]) == 0
    doc = read_json(str(model))
    assert doc["kind"] == "mixture" and doc["k"] == 8
    assert doc["source_seed"] == 11
    prov = doc["provenance"]
    digest = hashlib.sha256(pipeline["spec"].read_bytes()).hexdigest()
    assert prov["inputs"]["source"]["sha256"] == digest
    assert prov["modes"] == [read_json(str(pipeline["report"]))["top_k"][0]["anchor_index"]]

    out = tmp_path / "eval.json"
    assert main(["evaluate", "--source", str(pipeline["spec"]), "--model", str(model),
                 "--anchors", "50", "--pool", "800", "--seed", "5",
                 "--out", str(out)]) == 0
    ev = read_json(str(out))
    assert ev["model_kind"] == "mixture"
    assert set(ev["deltas"]) == {"d_mu", "d_sigma", "d_worst_mccs", "worst_count_ratio"}
    # reweighting must thin the planted mode
    assert ev["deltas"]["worst_count_ratio"] < 1.0
    # the file carries 9 significant digits, so recomputing the delta
    # from the rounded phase values can move the last digit
    assert ev["deltas"]["d_mu"] == pytest.approx(
        ev["after"]["mu_mccs"] - ev["before"]["mu_mccs"], abs=1e-8)
    assert (tmp_path / "eval.modes.csv").exists()
    rows = (tmp_path / "eval.modes.csv").read_text().splitlines()
    assert rows[0] == "phase,rank,anchor_index,neighbor_count,mccs"
    assert len(rows) == 1 + 2 * 24

    again = tmp_path / "eval2.json"
    assert main(["evaluate", "--source", str(pipeline["spec"]), "--model", str(model),
                 "--anchors", "50", "--pool", "800", "--seed", "5",
                 "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_calibrate_is_and_evaluate(pipeline, tmp_path):
    plan = tmp_path / "plan.json"
    assert main(["calibrate", "is", "--anchors", str(pipeline["anchors"]),
                 "--pool", str(pipeline["pool"]), "--report", str(pipeline["report"]),
                 "--hull-size", "40", "--seed", "5", "--out", str(plan)]) == 0
    doc = read_json(str(plan))
    assert doc["kind"] == "importance" and doc["hull_size"] == 40
    assert len(doc["entries"]) == 1
    assert 0.0 < doc["entries"][0]["p"] < 1.0

    out = tmp_path / "eval.json"
    assert main(["evaluate", "--source", str(pipeline["spec"]), "--model", str(plan),
                 "--anchors", "50", "--pool", "400", "--seed", "9",
                 "--out", str(out)]) == 0
    ev = read_json(str(out))
    assert ev["model_kind"] == "importance"
    acc = ev["acceptance"]["pool"]
    assert acc["outside_accepted"] == acc["outside_hull"]
    assert acc["accepted"] == acc["in_hull_accepted"] + acc["outside_accepted"]
    assert ev["deltas"]["worst_count_ratio"] < 1.0


def test_calibration_takes_the_report_radius(pipeline, tmp_path):
    report = tmp_path / "r02.json"
    assert main(["diagnose", "--anchors", str(pipeline["anchors"]),
                 "--pool", str(pipeline["pool"]), "--radius", "0.2",
                 "--out", str(report)]) == 0
    anchors, pool = read_store(pipeline["anchors"]), read_store(pipeline["pool"])
    worst = read_json(str(report))["top_k"][0]["anchor_index"]
    dense = [(anchors.embeddings[worst], worst)]

    plan_path = tmp_path / "plan.json"
    assert main(["calibrate", "is", "--anchors", str(pipeline["anchors"]),
                 "--pool", str(pipeline["pool"]), "--report", str(report),
                 "--hull-size", "40", "--seed", "5", "--out", str(plan_path)]) == 0
    doc = read_json(str(plan_path))
    assert doc["r0"] == 0.2
    plans = {r0: build_plan(pool, dense, reference_probes(pool.count, 5), r0, hull_size=40)
             for r0 in (0.2, 0.25)}
    want = tmp_path / "want.json"
    save_plan(str(want), plans[0.2], provenance=doc["provenance"])
    assert plan_path.read_bytes() == want.read_bytes()
    # the planted mode counts alike at both radii; the reference probe does not
    assert plans[0.2].reference_index != plans[0.25].reference_index

    mixture = tmp_path / "mixture.json"
    assert main(["calibrate", "gmm", "--source", str(pipeline["spec"]),
                 "--anchors", str(pipeline["anchors"]), "--report", str(report),
                 "--kmeans-k", "8", "--n-fit", "2000", "--seed", "5",
                 "--out", str(mixture)]) == 0
    weights = {}
    for r0 in (0.2, 0.25):
        with SyntheticSource(build_synthetic_model(2, 16, 11, **SPEC["parameters"])) as src:
            weights[r0] = calibrate_gmm(src, anchors.embeddings[[worst]], 5, k=8, r0=r0,
                                        n_fit=2000, source_seed=11).weights
    assert np.array_equal(load_mixture(str(mixture)).weights, weights[0.2])
    assert not np.array_equal(weights[0.2], weights[0.25])


def test_calibrate_is_scans_its_pool_once(pipeline, tmp_path, monkeypatch):
    # the reference candidates and the modes are counted in one scan
    import bbgc.embedding
    calls, scan = [], bbgc.embedding.scan
    monkeypatch.setattr(bbgc.embedding, "scan",
                        lambda anchors, pool, *rest, **kw: calls.append(len(pool))
                        or scan(anchors, pool, *rest, **kw))
    assert main(["calibrate", "is", "--anchors", str(pipeline["anchors"]),
                 "--pool", str(pipeline["pool"]), "--report", str(pipeline["report"]),
                 "--modes", "2", "--hull-size", "40", "--out", str(tmp_path / "plan.json")]) == 0
    assert calls == [2500]


def test_calibrate_is_on_an_empty_pool_exits_4(pipeline, tmp_path, capsys):
    # an empty pool has no reference probes; it once ended in an IndexError
    empty = tmp_path / "empty.bbgc"
    write_store(empty, np.empty((0, 2)), np.empty((0, 16), np.float32), seed=0)
    assert main(["calibrate", "is", "--anchors", str(pipeline["anchors"]),
                 "--pool", str(empty), "--report", str(pipeline["report"]),
                 "--out", str(tmp_path / "plan.json")]) == 4
    assert "cannot build a plan from an empty store" in capsys.readouterr().err
    assert not (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("method", ["gmm", "is"])
@pytest.mark.parametrize("radius, message", [
    (float("nan"), "radius must be a JSON number, got nan"),
    (2, "radius must lie in [0, 1], got 2.0"),
    ("0.25", "radius must be a JSON number, got '0.25'"),
])
def test_calibrate_refuses_a_report_radius_outside_the_unit_range(
        pipeline, tmp_path, capsys, method, radius, message):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(dict(read_json(str(pipeline["report"])), radius=radius)))
    flags = {"gmm": ["--source", str(pipeline["spec"]), "--n-fit", "100", "--kmeans-k", "2"],
             "is": ["--pool", str(pipeline["pool"])]}[method]
    capsys.readouterr()
    assert main(["calibrate", method, "--anchors", str(pipeline["anchors"]), *flags,
                 "--report", str(report), "--out", str(tmp_path / "model.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {report}: ") and message in err, err
    assert not (tmp_path / "model.json").exists()


def test_evaluate_frees_the_before_phase_before_the_after_phase_embeds(
        pipeline, tmp_path, monkeypatch):
    model = tmp_path / "mixture.json"
    assert main(["calibrate", "gmm", "--source", str(pipeline["spec"]),
                 "--anchors", str(pipeline["anchors"]), "--report", str(pipeline["report"]),
                 "--kmeans-k", "4", "--n-fit", "400", "--out", str(model)]) == 0
    real = bbgc.source.generate
    made, alive = [], []

    def generate(src, latents):
        if len(made) == 2:   # the after phase's first call
            alive.extend(ref() is not None for ref in made)
        embeddings, refs = real(src, latents)
        made.append(weakref.ref(embeddings))
        return embeddings, refs

    monkeypatch.setattr(bbgc.source, "generate", generate)
    assert main(["evaluate", "--source", str(pipeline["spec"]), "--model", str(model),
                 "--anchors", "20", "--pool", "200", "--out", str(tmp_path / "e.json")]) == 0
    assert len(made) == 4 and alive == [False, False]


@pytest.fixture(scope="module")
def models(pipeline, tmp_path_factory):
    """A mixture and a plan calibrated from the shared stores and report."""
    root = tmp_path_factory.mktemp("models")
    paths = {"gmm": root / "mixture.json", "is": root / "plan.json"}
    flags = {"gmm": ["--source", str(pipeline["spec"]), "--kmeans-k", "8", "--n-fit", "2000"],
             "is": ["--pool", str(pipeline["pool"]), "--hull-size", "40"]}
    for method, path in paths.items():
        assert main(["calibrate", method, *flags[method], "--anchors", str(pipeline["anchors"]),
                     "--report", str(pipeline["report"]), "--seed", "5",
                     "--out", str(path)]) == 0
    return paths


@pytest.mark.filterwarnings("ignore:no anchor has any neighbor")
@pytest.mark.parametrize("method", ["gmm", "is"])
def test_block_fed_evaluate_gives_the_reports_of_whole_pools(pipeline, models, tmp_path,
                                                             monkeypatch, method):
    # each phase's pool is drawn, embedded and scanned one generate batch (8192
    # rows here), or one proposal batch's acceptances, at a time; its report is
    # build_report's over the whole pool drawn and embedded in one piece
    import bbgc.cli as cli
    real_report, real_generate = diagnosis.build_report, bbgc.source.generate
    reports, rows = [], []

    def report(anchors, pool, *args, **kwargs):
        assert isinstance(pool, StoreStream)
        reports.append(real_report(anchors, pool, *args, **kwargs))
        return reports[-1]

    def generate(src, latents):
        rows.append(len(latents))
        return real_generate(src, latents)

    monkeypatch.setattr(diagnosis, "build_report", report)
    monkeypatch.setattr(bbgc.source, "generate", generate)
    m, seed = 20, 4
    seed_a = derive_seed(seed, cli._AFTER_ANCHORS_SALT)
    seed_c = derive_seed(seed, cli._AFTER_POOL_SALT)
    for n in (1, 8191, 8192, 8193, 2 * 8192 + 1):
        reports.clear(), rows.clear()
        out = tmp_path / f"eval{n}.json"
        assert main(["evaluate", "--source", str(pipeline["spec"]),
                     "--model", str(models[method]), "--anchors", str(m), "--pool", str(n),
                     "--seed", str(seed), "--out", str(out)]) == 0
        assert sum(rows) == 2 * (m + n) and max(rows) <= max(m, 8192)
        before = [sample_latents(count, 2, seed, stream)
                  for count, stream in ((m, STREAM_EVAL_ANCHORS), (n, STREAM_EVAL_POOL))]
        if method == "gmm":
            mixture = load_mixture(str(models[method]))
            after = [sample_calibrated(mixture, count, s) for count, s in ((m, seed_a), (n, seed_c))]
        else:
            plan = load_plan(str(models[method]))
            (a, stats_a), (c, stats_c) = (sample_calibrated_is(plan, count, s)
                                          for count, s in ((m, seed_a), (n, seed_c)))
            after = [a, c]
            assert read_json(str(out))["acceptance"] == {
                "anchors": dataclasses.asdict(stats_a), "pool": dataclasses.asdict(stats_c)}
        with SyntheticSource(build_synthetic_model(2, 16, 11, **SPEC["parameters"])) as src:
            want = [real_report(*(SampleStore(lat, real_generate(src, lat)[0], seed=s)
                                  for lat, s in zip(phase, seeds)), 0.3, 0.25, k=24, seed=seed)
                    for phase, seeds in ((before, (seed, seed)), (after, (seed_a, seed_c)))]
        assert reports == want, n


def test_a_plan_that_stalls_in_the_after_pool_exits_4_with_no_output(pipeline, tmp_path,
                                                                      capsys):
    # p = 0.0009 under a hull that holds the whole prior: the after phase's 2
    # anchors are accepted, its pool of 200 stalls after 25 scanned batches
    box = np.array([[-50.0, -50.0], [50.0, -50.0], [-50.0, 50.0], [50.0, 50.0]])
    plan = ImportanceSamplingPlan(
        entries=(_finish_entry(0.0009, box, 10, 5, 0),), reference_index=0,
        reference_latent=np.zeros(2), reference_embedding=np.eye(16)[0], r0=0.25, hull_size=4)
    save_plan(str(tmp_path / "plan.json"), plan)
    out = tmp_path / "eval.json"
    capsys.readouterr()
    assert main(["evaluate", "--source", str(pipeline["spec"]),
                 "--model", str(tmp_path / "plan.json"), "--anchors", "2", "--pool", "200",
                 "--seed", "1", "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "error: 162 acceptances after 200000 proposals; "
        "the plan's acceptance probabilities look misconfigured\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]


def test_a_source_failing_in_the_after_phase_exits_5_with_no_output(pipeline, models,
                                                                     tmp_path, capsys):
    # the child serves five requests, one per generate call: the before phase's
    # anchors and two pool blocks, the after phase's anchors and first pool
    # block; it closes its stdout on the sixth, the after phase's last block
    child = ("import os, sys\n"
             "from bbgc.source import load_source_spec, open_source, run_worker\n"
             f"src = open_source(load_source_spec({str(pipeline['spec'])!r}))\n"
             "embed, calls = src.embed, []\n"
             "def embed_five(latents):\n"
             "    calls.append(len(latents))\n"
             "    if len(calls) > 5:\n"
             "        os._exit(0)\n"
             "    return embed(latents)\n"
             "src.embed = embed_five\n"
             "run_worker(src, sys.stdin.buffer, sys.stdout.buffer)\n")
    spec = tmp_path / "child.json"
    spec.write_text(json.dumps({
        "kind": "subprocess", "latent_dim": 2, "embed_dim": 16,
        "parameters": {"argv": [sys.executable, "-c", child], "batch": 8192, "timeout": 60}}))
    out = tmp_path / "eval.json"
    capsys.readouterr()
    assert main(["evaluate", "--source", str(spec), "--model", str(models["gmm"]),
                 "--anchors", "20", "--pool", "8292", "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "closed its stdout" in err and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["child.json"]


def test_report_regenerates_tables(pipeline, tmp_path):
    prefix = tmp_path / "tables"
    assert main(["report", "--report", str(pipeline["report"]),
                 "--out", str(prefix)]) == 0
    modes = (tmp_path / "tables.modes.csv").read_text().splitlines()
    assert modes[0] == "phase,rank,anchor_index,neighbor_count,mccs"
    assert len(modes) == 1 + 24
    assert modes[1].startswith("all,0,")
    curves = (tmp_path / "tables.curves.csv").read_text().splitlines()
    assert curves[0] == "phase,kind,size,value"
    report = read_json(str(pipeline["report"]))
    n_points = sum(len(c["points"]) for c in report["curves"])
    assert len(curves) == 1 + n_points


def test_report_exports_store(pipeline, tmp_path):
    out = tmp_path / "pool.csv"
    assert main(["report", "--store", str(pipeline["pool"]),
                 "--fields", "index,latent", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "index,latent_0,latent_1"
    assert len(rows) == 1 + 2500


def test_report_store_default_path(pipeline):
    assert main(["report", "--store", str(pipeline["pool"]),
                 "--format", "jsonl", "--fields", "index"]) == 0
    produced = pipeline["pool"].parent / "pool.bbgc.jsonl"
    assert produced.exists()
    first = json.loads(produced.read_text().splitlines()[0])
    assert first == {"index": 0}


def test_worker_serves_source(pipeline):
    direct = SyntheticSource(build_synthetic_model(
        2, 16, 11, background=SPEC["parameters"]["background"],
        planted=SPEC["parameters"]["planted"]))
    lat = np.random.default_rng(0).normal(size=(25, 2))
    with SubprocessSource([sys.executable, "-m", "bbgc", "worker",
                           "--source", str(pipeline["spec"])], 2, 16) as src:
        emb, _ = src.embed(lat)
    f32 = lat.astype(np.float32).astype(np.float64)
    want = direct.embed(f32)[0].astype(np.float32).astype(np.float64)
    np.testing.assert_array_equal(emb, want)


# -- exit codes -------------------------------------------------------------------

def test_unknown_store_field_exits_2(pipeline, tmp_path, capsys):
    for fields in ("foo", "latent,foo", "", "index,index"):
        with pytest.raises(SystemExit) as err:
            main(["report", "--store", str(pipeline["pool"]), "--fields", fields,
                  "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2
        assert "--fields" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_usage_errors_exit_2(pipeline, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["sample", "--source", str(pipeline["spec"]), "--n", "0",
              "--out", str(tmp_path / "x.bbgc")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["diagnose", "--anchors", str(pipeline["anchors"]),
              "--pool", str(pipeline["pool"]), "--theta", "1.5",
              "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["diagnose", "--anchors", str(pipeline["anchors"]),
              "--pool", str(pipeline["pool"]), "--theta", "nan",
              "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sample", "--source", str(pipeline["spec"]), "--n", "5",
              "--seed", "-1", "--out", str(tmp_path / "x.bbgc")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["find-modes", "--anchors", str(pipeline["anchors"]),
              "--pool", str(pipeline["pool"]), "--radius", "2",
              "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2
    for sizes in ("", ","):   # curve sizes that name no size
        with pytest.raises(SystemExit) as err:
            main(["diagnose", "--anchors", str(pipeline["anchors"]),
                  "--pool", str(pipeline["pool"]), "--curve-sizes", sizes,
                  "--out", str(tmp_path / "x.json")])
        assert err.value.code == 2
    assert not (tmp_path / "x.json").exists()


def test_input_errors_exit_3(pipeline, tmp_path):
    missing = str(tmp_path / "nope.bbgc")
    assert main(["diagnose", "--anchors", missing, "--pool", str(pipeline["pool"]),
                 "--out", str(tmp_path / "x.json")]) == 3
    # anchors overlapping the pool violate the disjointness contract
    assert main(["diagnose", "--anchors", str(pipeline["pool"]),
                 "--pool", str(pipeline["pool"]),
                 "--out", str(tmp_path / "x.json")]) == 3
    bad = tmp_path / "bad.bbgc"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK!")
    assert main(["diagnose", "--anchors", str(bad), "--pool", str(pipeline["pool"]),
                 "--out", str(tmp_path / "x.json")]) == 3
    assert main(["evaluate", "--source", str(pipeline["spec"]),
                 "--model", str(pipeline["report"]), "--anchors", "10",
                 "--pool", "50", "--out", str(tmp_path / "x.json")]) == 3
    assert main(["report", "--report", str(pipeline["spec"]),
                 "--out", str(tmp_path / "t")]) == 3


def test_oversized_store_count_exits_3(pipeline, tmp_path, capsys):
    blob = pipeline["pool"].read_bytes()
    _magic, _version, latent_dim, embed_dim, _count, seed = HEADER.unpack(blob[:HEADER.size])
    bad = tmp_path / "bad.bbgc"
    bad.write_bytes(HEADER.pack(MAGIC, VERSION, latent_dim, embed_dim, 2 ** 40, seed)
                    + blob[HEADER.size:])
    capsys.readouterr()
    assert main(["report", "--store", str(bad), "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("count", [0, 1])
def test_oversized_store_record_exits_3(tmp_path, capsys, count):
    bad = tmp_path / "wide.bbgc"
    bad.write_bytes(HEADER.pack(MAGIC, VERSION, 2 ** 31, 1, count, 0) + bytes(64))
    capsys.readouterr()
    assert main(["report", "--store", str(bad), "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert "exceeds" in err and "Traceback" not in err


def test_calibration_errors_exit_4(pipeline, tmp_path):
    assert main(["calibrate", "gmm", "--source", str(pipeline["spec"]),
                 "--anchors", str(pipeline["anchors"]), "--report", str(pipeline["report"]),
                 "--kmeans-k", "5000", "--n-fit", "1000",
                 "--out", str(tmp_path / "m.json")]) == 4


def test_source_errors_exit_5(tmp_path):
    spec = tmp_path / "remote.json"
    spec.write_text(json.dumps({
        "kind": "remote", "latent_dim": 2, "embed_dim": 16,
        "parameters": {"url": "http://127.0.0.1:9", "retries": 0,
                       "backoff": 0.0, "timeout": 0.5},
    }))
    assert main(["sample", "--source", str(spec), "--n", "5",
                 "--out", str(tmp_path / "x.bbgc")]) == 5


@pytest.mark.parametrize("value", ["float('nan')", "0.5"])
def test_source_bad_values_exit_5(tmp_path, capsys, value):
    child = ("import sys\n"
             "import numpy as np\n"
             "from bbgc.source import run_worker\n"
             "class BadValues:\n"
             "    latent_dim = 2\n"
             "    def embed(self, lat):\n"
             "        emb = np.zeros((len(lat), 16))\n"
             f"        emb[:, 0] = {value}\n"
             "        return emb, None\n"
             "run_worker(BadValues(), sys.stdin.buffer, sys.stdout.buffer)\n")
    spec = tmp_path / "child.json"
    spec.write_text(json.dumps({
        "kind": "subprocess", "latent_dim": 2, "embed_dim": 16,
        "parameters": {"argv": [sys.executable, "-c", child], "timeout": 30},
    }))
    assert main(["sample", "--source", str(spec), "--n", "5",
                 "--out", str(tmp_path / "x.bbgc")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and "norm" in err and "Traceback" not in err


def test_child_exiting_mid_reply_exits_5(tmp_path, capsys):
    # the child sends a correct header and half the promised rows, then exits
    child = ("import struct, sys\n"
             "count = struct.unpack('<4sIIIQQ', sys.stdin.buffer.read(32))[4]\n"
             "sys.stdout.buffer.write(b'BBGC' + struct.pack('<IIIQQ', 1, 0, 16, count, 0)\n"
             "                        + bytes(68 * (count // 2)))\n")
    spec = tmp_path / "child.json"
    spec.write_text(json.dumps({
        "kind": "subprocess", "latent_dim": 2, "embed_dim": 16,
        "parameters": {"argv": [sys.executable, "-c", child], "timeout": 30},
    }))
    with SubprocessSource([sys.executable, "-c", child], 2, 16, timeout=30.0) as src:
        with pytest.raises(SourceUnavailableError, match="closed its stdout"):
            src.embed(np.zeros((6, 2)))
    capsys.readouterr()
    assert main(["sample", "--source", str(spec), "--n", "5",
                 "--out", str(tmp_path / "x.bbgc")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and "closed its stdout" in err and "Traceback" not in err


def test_unreachable_planted_mass_exits_3(tmp_path, capsys):
    spec = tmp_path / "far.json"
    spec.write_text(json.dumps({**SPEC, "latent_dim": 8, "parameters": {
        "background": [{"weight": 1.0, "spread": 10.0}],
        "planted": [{"mass": 0.5, "latent_norm": 1e6}],
    }}))
    assert main(["sample", "--source", str(spec), "--n", "5",
                 "--out", str(tmp_path / "x.bbgc")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite ball radius" in err and "Traceback" not in err


@pytest.mark.parametrize("parameters, message", [
    ({"argv": "python3 -m bbgc worker"}, "argv"),
    ({"argv": ["python3", "-m", "bbgc", "worker"], "batch": -5}, "batch"),
    ({"argv": ["python3", "-m", "bbgc", "worker"], "timeout": 10 ** 400},
     "bad subprocess source parameters"),
    # a synthetic model's parameters of the wrong type or value
    ({"background": [1]}, "bad synthetic source parameters"),
    ({"background": 5}, "bad synthetic source parameters"),
    ({"planted": 3}, "bad synthetic source parameters"),
    ({"background": [{"weight": [1]}]}, "bad synthetic source parameters"),
    ({"planted": [{"mass": "x"}]}, "bad synthetic source parameters"),
    ({"background": [{"center": "abc"}]}, "bad synthetic source parameters"),
    ({"planted": [{"mass": 10 ** 400}]}, "bad synthetic source parameters"),
    # a wait that the spec sets past one day: a poll or a sleep would overflow;
    # each source is refused before it starts a child or makes a request
    ({"argv": ["worker"], "timeout": 1e300}, "timeout"),
    ({"url": "http://127.0.0.1:9", "retries": 30}, "retries 30"),
    ({"url": "http://127.0.0.1:9", "retries": 10 ** 9}, "retries 1000000000"),
    # int() or float() would take these
    ({"argv": ["worker"], "batch": 2.5}, "batch must be a JSON integer"),
    ({"argv": ["worker"], "batch": True}, "batch must be a JSON integer"),
    ({"url": "http://127.0.0.1:9", "retries": 2.9}, "retries must be a JSON integer"),
    ({"argv": ["worker"], "timeout": "5"}, "timeout must be a JSON number"),
    ({"argv": ["worker"], "timeout": True}, "timeout must be a JSON number"),
    ({"url": "http://127.0.0.1:9", "backoff": "0.5"}, "backoff must be a JSON number"),
    ({"background": [{"weight": "2"}]}, "weight must be a JSON number"),
    ({"background": [{"spread": True}]}, "spread must be a JSON number"),
    ({"planted": [{"mass": "0.1"}]}, "mass must be a JSON number"),
    ({"planted": [{"mass": 0.1, "latent_norm": True}]}, "latent_norm must be a JSON number"),
    # with no backoff the wait is the attempts' timeouts: 10**9 + 1 of 30 s
    ({"url": "http://127.0.0.1:9", "retries": 10 ** 9, "backoff": 0.0}, "retries 1000000000"),
])
def test_bad_source_parameters_exit_3(tmp_path, capsys, monkeypatch, parameters, message):
    monkeypatch.setattr("urllib.request.urlopen",
                        lambda *args, **kwargs: pytest.fail("the source made a request"))
    kind = ("remote" if "url" in parameters else
            "subprocess" if "argv" in parameters else "synthetic")
    spec = tmp_path / "child.json"
    spec.write_text(json.dumps({"kind": kind, "latent_dim": 2, "embed_dim": 16,
                                "parameters": parameters}))
    assert main(["sample", "--source", str(spec), "--n", "5",
                 "--out", str(tmp_path / "x.bbgc")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [("max_iters", -1), ("tol", float("nan"))])
def test_plan_with_bad_solver_settings_exits_3(pipeline, tmp_path, capsys, field, value):
    plan = tmp_path / "plan.json"
    assert main(["calibrate", "is", "--anchors", str(pipeline["anchors"]),
                 "--pool", str(pipeline["pool"]), "--report", str(pipeline["report"]),
                 "--hull-size", "40", "--seed", "5", "--out", str(plan)]) == 0
    doc = read_json(str(plan))
    doc[field] = value
    plan.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--source", str(pipeline["spec"]), "--model", str(plan),
                 "--anchors", "10", "--pool", "50", "--out", str(tmp_path / "e.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err and "Traceback" not in err


NESTED = "[" * 200_000 + "]" * 200_000   # JSON text that json.dumps cannot make


@pytest.mark.parametrize("command, doc", [
    ("calibrate", {"top_k": [5]}),
    ("calibrate", [1, 2]),
    ("evaluate", [1, 2]),
    ("evaluate", {"kind": "mixture", "means": {"a": 1}, "variances": [1.0, 1.0],
                  "weights": [1.0]}),
    ("evaluate", {"kind": "importance", "entries": [5], "reference": {},
                  "r0": 0.25, "hull_size": 2}),
    ("report", {"top_k": [5]}),
    ("report", 5),
    # int() would truncate these to anchor 1
    ("calibrate", {"top_k": [{"anchor_index": 1.5}]}),
    ("calibrate", {"top_k": [{"anchor_index": True}]}),
    # a store of these dims could not be read back
    ("sample", {"kind": "synthetic", "latent_dim": 1, "embed_dim": 2 ** 29 - 2}),
    # dict() would read these as {"a": "b", "c": "d"} and as real parameters
    ("sample", {"kind": "synthetic", "latent_dim": 2, "embed_dim": 4,
                "parameters": ["ab", "cd"]}),
    ("sample", {"kind": "synthetic", "latent_dim": 2, "embed_dim": 4,
                "parameters": [["background", [{"weight": 1.0, "spread": 0.2}]]]}),
    # deeper than the JSON parser recurses: a spec, a report and a model file
    pytest.param("sample", NESTED, id="sample-nested"),
    pytest.param("report", NESTED, id="report-nested"),
    pytest.param("evaluate", NESTED, id="evaluate-nested"),
])
def test_wrong_shaped_json_exits_3(pipeline, tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = {
        "sample": ["sample", "--source", str(path), "--n", "5"],
        "calibrate": ["calibrate", "is", "--anchors", str(pipeline["anchors"]),
                      "--pool", str(pipeline["pool"]), "--report", str(path)],
        "evaluate": ["evaluate", "--source", str(pipeline["spec"]), "--model", str(path),
                     "--anchors", "10", "--pool", "50"],
        "report": ["report", "--report", str(path)],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("method", ["gmm", "is"])
def test_empty_mode_list_exits_3_before_a_source_opens(pipeline, tmp_path, capsys,
                                                       monkeypatch, method):
    # an empty top_k once made `calibrate gmm` embed all --n-fit rows first
    monkeypatch.setattr("bbgc.source.open_source",
                        lambda spec: pytest.fail("a source was opened"))
    report = tmp_path / "report.json"
    report.write_text(json.dumps(dict(read_json(str(pipeline["report"])), top_k=[])))
    argv = {"gmm": ["gmm", "--source", str(pipeline["spec"])],
            "is": ["is", "--pool", str(pipeline["pool"])]}[method]
    capsys.readouterr()
    assert main(["calibrate", *argv, "--anchors", str(pipeline["anchors"]),
                 "--report", str(report), "--out", str(tmp_path / "m.json")]) == 3
    assert capsys.readouterr().err == f"error: {report}: top_k lists no mode\n"
    assert main(["report", "--report", str(report), "--out", str(tmp_path / "t")]) == 3


@pytest.mark.parametrize("kind, field, value, message", [
    # int() overflowed on these: an OverflowError traceback, exit 1
    ("importance", "dense_count", float("inf"), "dense_count must be a JSON integer"),
    ("mixture", "source_seed", float("inf"), "source_seed must be a JSON integer"),
    # these were accepted, and evaluate exited 0
    ("importance", "dense_count", "7", "dense_count must be a JSON integer"),
    ("importance", "hull_size", 2.9, "hull_size must be a JSON integer"),
    ("importance", "latent_dim", 7, "of dim 7"),
    ("importance", "entries", [], "need entries"),
    ("mixture", "k", 3, "k, latent_dim differ from means (4, 2)"),
    ("mixture", "latent_dim", 3, "k, latent_dim differ from means (4, 2)"),
])
def test_model_file_stating_a_bad_field_exits_3(pipeline, tmp_path, capsys, kind, field,
                                                 value, message):
    model = tmp_path / "model.json"
    if kind == "mixture":
        argv = ["gmm", "--source", str(pipeline["spec"]), "--kmeans-k", "4", "--n-fit", "400"]
    else:
        argv = ["is", "--pool", str(pipeline["pool"]), "--hull-size", "40"]
    assert main(["calibrate", *argv, "--anchors", str(pipeline["anchors"]),
                 "--report", str(pipeline["report"]), "--out", str(model)]) == 0
    doc = read_json(str(model))
    (doc["entries"][0] if field == "dense_count" else doc)[field] = value
    model.write_text(json.dumps(doc))   # inf travels as Infinity
    capsys.readouterr()
    assert main(["evaluate", "--source", str(pipeline["spec"]), "--model", str(model),
                 "--anchors", "10", "--pool", "50", "--out", str(tmp_path / "e.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: ") and message in err, err
    assert err.count("\n") == 1


def test_plan_for_another_latent_dim_exits_3(pipeline, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    assert main(["calibrate", "is", "--anchors", str(pipeline["anchors"]),
                 "--pool", str(pipeline["pool"]), "--report", str(pipeline["report"]),
                 "--hull-size", "40", "--out", str(plan)]) == 0
    spec = tmp_path / "spec3.json"
    spec.write_text(json.dumps(dict(SPEC, latent_dim=3)))
    capsys.readouterr()
    assert main(["evaluate", "--source", str(spec), "--model", str(plan),
                 "--anchors", "10", "--pool", "50", "--out", str(tmp_path / "e.json")]) == 3
    assert capsys.readouterr().err == "error: model latent_dim 2, source 3\n"


def _child_env() -> dict:
    """The environment of a child interpreter that imports this checkout's bbgc."""
    src_root = os.path.dirname(os.path.dirname(bbgc.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])))


def test_module_run_delivers_all_output_and_its_exit_code(tmp_path):
    # `python -m bbgc` flushes its streams and ends without finalization
    # once main returns: whatever it wrote to a pipe arrives whole
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    store = tmp_path / "s.bbgc"
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)   # so stdout on a pipe is block-buffered

    def run(*argv, stdin=b""):
        return subprocess.run([sys.executable, "-m", "bbgc", *argv], input=stdin,
                              env=env, capture_output=True, timeout=120)

    done = run("sample", "--source", str(spec), "--n", "7", "--out", str(store))
    assert (done.returncode, done.stdout, done.stderr) == (
        0, f"wrote 7 samples to {store}\n".encode(), b"")
    assert read_store(store).count == 7
    # the worker's replies outgrow a pipe's buffer; each arrives whole
    lat = np.random.default_rng(2).normal(size=(5000, 2)).astype(np.float32).astype(np.float64)
    reply = pack_frame(SyntheticSource(build_synthetic_model(
        2, 16, 11, **SPEC["parameters"])).embed(lat)[0], as_latents=False)
    done = run("worker", "--source", str(spec), stdin=2 * pack_frame(lat, as_latents=True))
    assert (done.returncode, done.stdout, done.stderr) == (0, 2 * reply, b"")
    missing = str(tmp_path / "missing.json")
    done = run("sample", "--source", missing, "--n", "7", "--out", str(store))
    assert done.returncode == 3 and done.stdout == b""
    assert done.stderr.startswith(b"error: ") and done.stderr.endswith(b"\n")
    # in-process, the same failure returns its code and this process goes on
    assert main(["sample", "--source", missing, "--n", "7", "--out", str(store)]) == 3


def test_synthetic_spec_at_the_record_bound_exits_3(tmp_path):
    # the widest specs a store can hold, on either side of the record: a
    # synthetic model must be refused before it draws a 4 GiB center, and a
    # latent this wide before `sample` draws 5 rows of it (20 GiB), so each
    # command runs in a child whose address space could hold neither
    spec = tmp_path / "wide.json"
    env = _child_env()
    limit = 1 << 30
    for dims, message in [((1, 2 ** 29 - 3), "error: embed_dim must be in [2, "),
                          ((2 ** 29 - 4, 2), f"error: {spec}: latent_dim must be in [1, ")]:
        spec.write_text(json.dumps({"kind": "synthetic", "latent_dim": dims[0],
                                    "embed_dim": dims[1]}))
        out = subprocess.run(
            [sys.executable, "-m", "bbgc", "sample", "--source", str(spec), "--n", "5",
             "--out", str(tmp_path / "x.bbgc")], env=env, capture_output=True, text=True,
            timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert out.returncode == 3, out.stderr[-400:]
        assert out.stderr.startswith(message), out.stderr[-400:]


@pytest.mark.parametrize("field, value", [
    ("means", [[None, 0.0], [1.0, 1.0]]),
    ("variances", [None, 1.0]),
    ("weights", [None, 1.0]),
])
def test_non_finite_mixture_exits_3(pipeline, tmp_path, capsys, field, value):
    doc = {"kind": "mixture", "means": [[0.0, 0.0], [1.0, 1.0]],
           "variances": [1.0, 1.0], "weights": [0.0, 1.0], field: value}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))   # null parses as NaN
    capsys.readouterr()
    assert main(["evaluate", "--source", str(pipeline["spec"]), "--model", str(path),
                 "--anchors", "10", "--pool", "50", "--out", str(tmp_path / "e.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err and "Traceback" not in err


def _with_float(path, row: int, value: float, out):
    """A copy of the store at ``path`` with ``value`` in place of the
    largest-magnitude float of embedding ``row``, so that 0.0 moves its norm most."""
    st = read_store(path)
    rec = record_dtype(st.latent_dim, st.embed_dim)
    col = int(np.argmax(np.abs(st.embeddings[row])))
    blob = bytearray(path.read_bytes())
    at = HEADER.size + row * rec.itemsize + rec.fields["embedding"][1] + 4 * col
    blob[at:at + 4] = np.float32(value).tobytes()
    out.write_bytes(bytes(blob))
    return out


def _analysis_argv(command: str, pipeline, anchors, pool) -> list[str]:
    return {
        "diagnose": ["diagnose", "--anchors", str(anchors), "--pool", str(pool)],
        "find-modes": ["find-modes", "--anchors", str(anchors), "--pool", str(pool)],
        "calibrate gmm": ["calibrate", "gmm", "--source", str(pipeline["spec"]),
                          "--anchors", str(anchors), "--report", str(pipeline["report"]),
                          "--n-fit", "2000", "--kmeans-k", "8"],
        "calibrate is": ["calibrate", "is", "--anchors", str(anchors), "--pool", str(pool),
                         "--report", str(pipeline["report"])],
    }[command]


@pytest.mark.parametrize("value", [np.inf, 50.0, np.nan, 0.0])
@pytest.mark.parametrize("command", ["diagnose", "find-modes", "calibrate gmm", "calibrate is"])
def test_anchor_without_unit_norm_exits_3(pipeline, tmp_path, capsys, command, value):
    # read_store takes any store, but no command scores a non-unit row: inf or
    # 50.0 would make anchor 3 the worst mode, and NaN or 0.0 would hide it
    anchors = _with_float(pipeline["anchors"], 3, value, tmp_path / "anchors.bbgc")
    capsys.readouterr()
    argv = _analysis_argv(command, pipeline, anchors, pipeline["pool"])
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {anchors}: embedding 3 has norm") and "Traceback" not in err


@pytest.mark.parametrize("command", ["diagnose", "find-modes", "calibrate is"])
def test_pool_without_unit_norm_exits_3(pipeline, tmp_path, capsys, command):
    pool = _with_float(pipeline["pool"], 2499, np.nan, tmp_path / "pool.bbgc")
    capsys.readouterr()
    argv = _analysis_argv(command, pipeline, pipeline["anchors"], pool)
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {pool}: embedding 2499 has norm nan")


@pytest.mark.parametrize("command", ["diagnose", "find-modes", "calibrate is"])
def test_pool_with_a_non_finite_latent_exits_3(pipeline, tmp_path, capsys, command):
    # `calibrate is` takes pool latents as hull vertices: a NaN latent once
    # ended in a ValueError from the plan builder
    st = read_store(pipeline["pool"])
    blob = bytearray(pipeline["pool"].read_bytes())
    at = HEADER.size + record_dtype(st.latent_dim, st.embed_dim).itemsize * 7
    blob[at:at + 4] = np.float32(np.nan).tobytes()   # the first latent float of row 7
    pool = tmp_path / "pool.bbgc"
    pool.write_bytes(bytes(blob))
    capsys.readouterr()
    argv = _analysis_argv(command, pipeline, pipeline["anchors"], pool)
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 3
    assert capsys.readouterr().err == f"error: {pool}: latents must be finite\n"


def test_cli_import_does_not_load_scipy_stats(pipeline):
    # scipy.stats costs more import time than the rest of bbgc together;
    # Qhull, nnls and the HTTP client are imported by the code that uses them,
    # on first use, so neither bbgc.cli nor the worker child loads them; no
    # module of the package imports bbgc.parallel, which the bench alone uses
    env = _child_env()
    cold = {"scipy.spatial", "scipy.optimize", "scipy.stats", "http.client",
            "urllib.request", "ssl", "bbgc.parallel"}
    probe = f"import sys, bbgc.cli; print(sorted(m for m in {sorted(cold)!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
    # -X importtime lists on stderr every module that the child imports
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bbgc", "worker",
         "--source", str(pipeline["spec"])],
        input=pack_frame(np.zeros((1, 2)), as_latents=True), env=env, check=True,
        capture_output=True, timeout=120)
    assert unpack_frame(child.stdout)[3].shape == (1, 16)
    loaded = {line.rsplit("|", 1)[-1].strip() for line in child.stderr.decode().splitlines()
              if line.startswith("import time:")}
    assert "bbgc.source" in loaded and not loaded & cold, sorted(loaded & cold)


def test_store_import_loads_no_analysis_modules():
    # the package binds read_store alone, so reading a store loads no scan,
    # no calibration and no hull code
    env = _child_env()
    heavy = ["bbgc.cli", "bbgc.diagnosis", "bbgc.gmm", "bbgc.importance", "scipy.spatial"]
    probe = f"import sys, bbgc.store; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _probe(code: str, *args: str) -> int:
    """The last number that ``code`` prints, run with ``args`` in a fresh
    interpreter.  Linux starts a child's ru_maxrss at its parent's peak RSS,
    so the probe runs as the child of a small launcher, not of this process."""
    launcher = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    out = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-W", "ignore",
                          "-c", code, *args], env=_child_env(), check=True,
                         capture_output=True, text=True, timeout=300)
    return int(out.stdout.split()[-1])


# Run in a fresh interpreter: sample, diagnose and find-modes at embed 128,
# printing the growth of ru_maxrss (KiB on Linux) over the import.
_MEMORY_PROBE = """
import contextlib, io, resource, sys
import bbgc.cli
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
base = peak()
spec, root, pool = sys.argv[1], sys.argv[2], sys.argv[3]
for argv in (["sample", "--source", spec, "--n", "200", "--role", "anchors", "--out", root + "/a"],
             ["sample", "--source", spec, "--n", pool, "--out", root + "/p"],
             ["diagnose", "--anchors", root + "/a", "--pool", root + "/p",
              "--curve-sizes", "100," + pool, "--out", root + "/r.json"],
             ["find-modes", "--anchors", root + "/a", "--pool", root + "/p",
              "--out", root + "/m.json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert bbgc.cli.main(argv) == 0, argv
print(peak() - base)
"""


def test_pipeline_memory_grows_by_a_few_float32_pools(tmp_path):
    # Stores and wire frames hold float32 embeddings, and the scan screens
    # with them as they are, so the commands after the import need the
    # pool's float32 bytes and fixed-size blocks.  Embedding through a worker
    # child keeps the synthetic embed's own working memory out of this process.
    from configs import DETECTION, spec_dict
    pool = 20_000
    synthetic = tmp_path / "synthetic.json"
    synthetic.write_text(json.dumps(spec_dict(DETECTION, 7)))
    spec = tmp_path / "source.json"
    spec.write_text(json.dumps({
        "kind": "subprocess", "latent_dim": DETECTION["latent_dim"],
        "embed_dim": DETECTION["embed_dim"],
        "parameters": {"argv": [sys.executable, "-m", "bbgc", "worker",
                                "--source", str(synthetic)]}}))
    growth = _probe(_MEMORY_PROBE, str(spec), str(tmp_path), str(pool))
    pool_float32 = pool * DETECTION["embed_dim"] * 4
    # measured 1.60 to 1.61 pools, now that diagnose and find-modes stream the
    # pool; 2.21 when each read the whole store (both from the launcher)
    assert growth < 1.9 * pool_float32, growth / pool_float32


# Run in a fresh interpreter: diagnose and find-modes over the stores given,
# printing the growth of ru_maxrss over the import.
_ANALYSIS_PROBE = """
import contextlib, io, resource, sys
import bbgc.cli
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
base = peak()
anchors, pool, out = sys.argv[1:4]
for argv in (["diagnose", "--anchors", anchors, "--pool", pool, "--curve-sizes", "100,1000",
              "--out", out + "/r.json"],
             ["find-modes", "--anchors", anchors, "--pool", pool, "--out", out + "/m.json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert bbgc.cli.main(argv) == 0, argv
print(peak() - base)
"""


def test_diagnose_and_find_modes_memory_does_not_grow_with_the_pool(tmp_path):
    # each scans its pool store block by block as it reads it, so a pool
    # twice as large needs no more memory: only anchors, one block and the
    # scan's fixed buffers are held
    from configs import DETECTION, spec_dict
    n = 20_000
    spec = tmp_path / "source.json"
    spec.write_text(json.dumps(spec_dict(DETECTION, 7)))
    for argv in (["sample", "--source", str(spec), "--n", "300", "--role", "anchors",
                  "--out", str(tmp_path / "a")],
                 ["sample", "--source", str(spec), "--n", str(2 * n),
                  "--out", str(tmp_path / "p2")]):
        assert main(argv) == 0, argv
    st = read_store(tmp_path / "p2")
    write_store(tmp_path / "p1", st.latents[:n], st.embeddings[:n], seed=0)
    small, large = (_probe(_ANALYSIS_PROBE, str(tmp_path / "a"), str(tmp_path / name),
                           str(tmp_path)) for name in ("p1", "p2"))
    pool_float32 = n * DETECTION["embed_dim"] * 4   # of the rows the larger pool adds
    # measured 0.02 to 0.04 of them, each probe about 18 MiB over the import;
    # 1.23 when each command read its whole pool store
    assert large - small < 0.25 * pool_float32, (small, large)


# Run in a fresh interpreter: diagnose with the flags given, printing the
# growth of ru_maxrss over the import and one small float32 GEMM, which
# touches the BLAS threads' own buffers whatever the scan's blocks are.
_DIAGNOSE_PROBE = """
import contextlib, io, resource, sys
import numpy as np
import bbgc.cli
np.ones((256, 128), np.float32) @ np.ones((128, 1024), np.float32)
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
base = peak()
with contextlib.redirect_stdout(io.StringIO()):
    assert bbgc.cli.main(["diagnose", *sys.argv[1:]]) == 0
print(peak() - base)
"""


def test_diagnose_memory_stays_below_one_wide_screen_block(tmp_path):
    # the scan screens in blocks of at most 1 MiB, so diagnose of an embed-128
    # pool holds its anchors, one 8192-row store block and those blocks: less
    # than the float32 GEMM output alone of a 256 x 8192 screen, 8 MiB
    from configs import DETECTION, spec_dict
    spec = tmp_path / "source.json"
    spec.write_text(json.dumps(spec_dict(DETECTION, 7)))
    for argv in (["sample", "--source", str(spec), "--n", "300", "--role", "anchors",
                  "--out", str(tmp_path / "a")],
                 ["sample", "--source", str(spec), "--n", "20000", "--out", str(tmp_path / "p")]):
        assert main(argv) == 0, argv
    growth = _probe(_DIAGNOSE_PROBE, "--anchors", str(tmp_path / "a"), "--pool",
                    str(tmp_path / "p"), "--out", str(tmp_path / "r.json"))
    # measured 6.1 to 6.3 MiB; 15.5 to 15.9 MiB with the 256 x 8192 screen
    assert growth < 8 * 2 ** 20, growth / 2 ** 20


# Run in a fresh interpreter: evaluate with the flags given, in blocks of
# 1024 rows, printing the growth of ru_maxrss over the import and the scipy
# modules that a plan loads.
_EVALUATE_PROBE = """
import contextlib, io, resource, sys
import bbgc.cli, bbgc.importance, bbgc.source, scipy.optimize, scipy.spatial
bbgc.source._GENERATE_ROWS = bbgc.importance._PROPOSAL_BATCH = 1024
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
base = peak()
with contextlib.redirect_stdout(io.StringIO()):
    assert bbgc.cli.main(["evaluate", *sys.argv[1:]]) == 0
print(peak() - base)
"""


@pytest.mark.parametrize("method", ["gmm", "is"])
def test_evaluate_memory_does_not_grow_with_the_pool(models, tmp_path, method):
    # each phase draws, embeds and scans its pool one generate batch (or one
    # proposal batch's acceptances) at a time, so a pool twice as large needs
    # no more memory: only the anchors, one block and the scan's buffers.
    # The blocks are small because glibc's heap keeps one or two freed blocks
    # resident at random: with 8192-row blocks of 8 MB that added up to half
    # of the rows below, and with a fixed mmap threshold nothing
    n, embed_dim = 20_000, 128
    spec = tmp_path / "source.json"
    spec.write_text(json.dumps(dict(SPEC, embed_dim=embed_dim)))
    small, large = (_probe(_EVALUATE_PROBE, "--source", str(spec), "--model", str(models[method]),
                           "--anchors", "200", "--pool", str(pool),
                           "--out", str(tmp_path / "e.json"))
                    for pool in (n, 2 * n))
    pool_float64 = n * embed_dim * 8   # of the rows the larger pool adds
    # measured -0.08 to 0.09 of them; 1.03 to 1.06 when each phase held its pool
    assert large - small < 0.25 * pool_float64, (small, large)


_CALIBRATE_PROBE = """
import contextlib, io, resource, sys
import bbgc.cli
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
base = peak()
with contextlib.redirect_stdout(io.StringIO()):
    assert bbgc.cli.main(["calibrate", "gmm", *sys.argv[1:]]) == 0
print(peak() - base)
"""


def test_calibrate_gmm_memory_holds_no_fit_set_embeddings(tmp_path):
    # calibrate embeds its fit set and counts each batch's dense modes as it
    # comes, so 10**5 fit rows of embed 32 never sit in memory at once
    from configs import GMM_CALIBRATION, spec_dict
    n_fit = 100_000
    spec = tmp_path / "source.json"
    spec.write_text(json.dumps(spec_dict(GMM_CALIBRATION, 7)))
    for argv in (["sample", "--source", str(spec), "--n", "300", "--role", "anchors",
                  "--out", str(tmp_path / "a")],
                 ["sample", "--source", str(spec), "--n", "5000", "--out", str(tmp_path / "p")],
                 ["diagnose", "--anchors", str(tmp_path / "a"), "--pool", str(tmp_path / "p"),
                  "--curve-sizes", "100,5000", "--out", str(tmp_path / "r.json")]):
        assert main(argv) == 0, argv
    growth = _probe(_CALIBRATE_PROBE, "--source", str(spec), "--anchors", str(tmp_path / "a"),
                    "--report", str(tmp_path / "r.json"), "--n-fit", str(n_fit),
                    "--out", str(tmp_path / "m.json"))
    fit_embeddings = n_fit * GMM_CALIBRATION["embed_dim"] * 8   # as float64
    # measured 0.45 to 0.46, and 0.50 to 0.52 before k-means assignment wrote
    # into arrays allocated once; embedding the fit set in one generate call, 1.72
    assert growth < fit_embeddings / 2, growth / fit_embeddings


# calibration takes its radius from the report, so --radius is unknown here
@pytest.mark.parametrize("flags", [["--theta", "0.3"], ["--radius", "0.25"]])
def test_calibrate_is_rejects_bad_flags(pipeline, tmp_path, flags):
    with pytest.raises(SystemExit) as err:
        main(["calibrate", "is", "--anchors", str(pipeline["anchors"]),
              "--pool", str(pipeline["pool"]), "--report", str(pipeline["report"]),
              *flags, "--out", str(tmp_path / "p.json")])
    assert err.value.code == 2


def test_worker_oversized_request_exits_5(pipeline, monkeypatch, capsys):
    head = HEADER.pack(MAGIC, VERSION, 2, 0, 2 ** 40, 0)
    stdin = io.TextIOWrapper(io.BufferedReader(io.BytesIO(head + b"abc")))
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["worker", "--source", str(pipeline["spec"])]) == 5
    assert "truncated request body" in capsys.readouterr().err


def test_worker_request_with_embeddings_exits_5(pipeline, monkeypatch, capsys):
    head = HEADER.pack(MAGIC, VERSION, 2, 2 ** 28, 1, 0)
    stdin = io.TextIOWrapper(io.BufferedReader(io.BytesIO(head + bytes(64))))
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["worker", "--source", str(pipeline["spec"])]) == 5
    assert "request embed_dim 268435456" in capsys.readouterr().err


def test_worker_dim_mismatch_exit_5(pipeline, tmp_path, monkeypatch, capsys):
    # the parent's spec says latent_dim 3 and the child's source has 2: the
    # child refuses the first request's header, and the parent names why
    monkeypatch.setenv("PYTHONPATH", _child_env()["PYTHONPATH"])
    spec = tmp_path / "child.json"
    spec.write_text(json.dumps({
        "kind": "subprocess", "latent_dim": 3, "embed_dim": SPEC["embed_dim"],
        "parameters": {"argv": [sys.executable, "-m", "bbgc", "worker",
                                "--source", str(pipeline["spec"])], "timeout": 60}}))
    out = tmp_path / "x.bbgc"
    capsys.readouterr()
    assert main(["sample", "--source", str(spec), "--n", "5", "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: child closed its stdout") and "Traceback" not in err, err
    assert "request latent_dim 3, source has 2" in err, err
    assert not out.exists() and not (tmp_path / "x.bbgc.tmp").exists()


def _report_edit(report: dict, edit: str) -> dict:
    doc = json.loads(json.dumps(report))
    if edit == "no neighbor_count":
        del doc["top_k"][3]["neighbor_count"]
    elif edit == "text neighbor_count":
        doc["top_k"][3]["neighbor_count"] = "x,y"
    elif edit == "no curve kind":
        del doc["curves"][1]["kind"]
    elif edit == "unknown curve kind":
        doc["curves"][1]["kind"] = "mean"
    elif edit == "radius 2":
        doc["radius"] = 2
    elif edit == "no radius":
        del doc["radius"]
    elif edit == "evaluation":
        doc = {"before": doc, "after": doc}
    else:   # a mode anchor past the 80 anchors of the store
        doc["top_k"][0]["anchor_index"] = 80
    return doc


@pytest.mark.parametrize("edit, message", [
    # _write_tables read these two unchecked: a KeyError traceback, or "x,y"
    # copied into modes.csv
    ("no neighbor_count", "'neighbor_count'"),
    ("text neighbor_count", "neighbor_count must be a JSON integer"),
    ("no curve kind", "'kind'"),
    ("unknown curve kind", "unknown curve kind 'mean'"),
    # calibration runs at the report's radius, so every reader checks it
    ("radius 2", "radius must lie in [0, 1], got 2.0"),
    ("no radius", "'radius'"),
])
def test_report_with_a_bad_table_field_exits_3(pipeline, tmp_path, capsys, edit, message):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(_report_edit(read_json(str(pipeline["report"])), edit)))
    capsys.readouterr()
    assert main(["report", "--report", str(report), "--out", str(tmp_path / "t")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {report}: ") and message in err, err
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("t.*"))


@pytest.mark.parametrize("edit, message", [
    ("evaluation", "not a diagnosis report"),
    ("anchor outside", "mode anchor 80 outside store of 80"),
])
def test_calibrate_refuses_a_report_it_cannot_use(pipeline, tmp_path, capsys, edit, message):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(_report_edit(read_json(str(pipeline["report"])), edit)))
    capsys.readouterr()
    assert main(["calibrate", "is", "--anchors", str(pipeline["anchors"]),
                 "--pool", str(pipeline["pool"]), "--report", str(report),
                 "--out", str(tmp_path / "plan.json")]) == 3
    assert capsys.readouterr().err == f"error: {report}: {message}\n"
    assert not (tmp_path / "plan.json").exists()


def test_evaluate_needs_two_anchors(pipeline, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["evaluate", "--source", str(pipeline["spec"]), "--model", "unread.json",
              "--anchors", "1", "--pool", "50", "--out", str(tmp_path / "e.json")])
    assert err.value.code == 2
    assert "--anchors must be >= 2" in capsys.readouterr().err


def test_store_with_a_zero_dim_exits_3(pipeline, tmp_path, capsys):
    frame = tmp_path / "frame.bbgc"
    frame.write_bytes(pack_frame(np.eye(3, 16), as_latents=False))
    capsys.readouterr()
    assert main(["diagnose", "--anchors", str(frame), "--pool", str(pipeline["pool"]),
                 "--out", str(tmp_path / "d.json")]) == 3
    assert capsys.readouterr().err == f"error: {frame}: store dims 0x16, each must be >= 1\n"


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_report_store_with_a_non_finite_value_exits_3(pipeline, tmp_path, capsys, value):
    # this was a ValueError traceback (exit 1) after the CSV header was written
    bad = _with_float(pipeline["pool"], 7, value, tmp_path / "bad.bbgc")
    out = tmp_path / "bad.csv"
    capsys.readouterr()
    assert main(["report", "--store", str(bad), "--out", str(out)]) == 3
    assert capsys.readouterr().err == \
        "error: row 7 has a non-finite embedding; a table holds finite values\n"
    assert not out.exists()


def test_sample_batches_wide_latents_within_a_byte_budget(tmp_path):
    # 8192 rows of a 4096-wide latent are 256 MiB of float64: `sample` took
    # them in one batch and the synthetic embed in 4096-row blocks, whatever
    # the width, and ran out of this child's address space (as did 1024 rows
    # at the widest accepted latent_dim, 65536, which runs 10x longer here)
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"kind": "synthetic", "latent_dim": 4096, "embed_dim": 16}))
    out = tmp_path / "wide.bbgc"
    limit = 1 << 30
    run = subprocess.run(
        [sys.executable, "-m", "bbgc", "sample", "--source", str(spec), "--n", "8192",
         "--out", str(out)], env=_child_env(), capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert run.returncode == 0, run.stderr[-400:]
    st = read_store(out)
    assert (st.count, st.latent_dim, st.embed_dim) == (8192, 4096, 16)


# -- inputs on pipes -------------------------------------------------------------------

def _run_on_a_pipe(blob: bytes, after: str, argv) -> subprocess.CompletedProcess:
    """Run ``bbgc *argv(path)`` in a child whose ``path`` is a pipe carrying
    ``blob``; the writer then closes the pipe ("close"), holds it open
    ("hold") or writes zeros ("more") until the child exits."""
    r, w = os.pipe()
    exited = threading.Event()

    def feed():
        with open(w, "wb", buffering=0) as fh:
            try:
                fh.write(blob)
                while after == "more":
                    fh.write(bytes(1 << 16))
            except BrokenPipeError:   # the child is gone
                return
            if after == "hold":
                exited.wait(120)

    limit = 1 << 30   # a child that reads the zeros until EOF runs out of memory, not the host
    child = subprocess.Popen(
        [sys.executable, "-m", "bbgc", *argv(f"/dev/fd/{r}")], pass_fds=(r,), env=_child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    os.close(r)
    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        child.kill()
        out, err = child.communicate()
        err += "\n(timed out: the child read past the store)"
    finally:
        exited.set()
        feeder.join(60)
    assert not feeder.is_alive()
    return subprocess.CompletedProcess(child.args, child.returncode, out, err)


@pytest.mark.parametrize("after", ["hold", "more"])
def test_store_on_a_pipe_is_read_up_to_its_last_record(pipeline, tmp_path, after):
    # read_store read until EOF: it never returned while the writer held the
    # pipe open, and it kept every byte written after the store
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    assert main(["report", "--store", str(pipeline["pool"]), "--out", str(want)]) == 0
    run = _run_on_a_pipe(pipeline["pool"].read_bytes(), after,
                         lambda path: ["report", "--store", path, "--out", str(got)])
    assert run.returncode == 0, run.stderr[-400:]
    assert got.read_bytes() == want.read_bytes()


def test_store_on_a_pipe_that_ends_early_exits_3(pipeline, tmp_path):
    blob = pipeline["pool"].read_bytes()
    record = record_dtype(SPEC["latent_dim"], SPEC["embed_dim"]).itemsize
    run = _run_on_a_pipe(blob[:HEADER.size + 1000 * record + record // 2], "close",
                         lambda path: ["report", "--store", path,
                                       "--out", str(tmp_path / "x.csv")])
    assert run.returncode == 3, run.stderr[-400:]
    assert run.stderr.startswith("error: /dev/fd/")
    assert run.stderr.endswith(": header promises 2500 records, only 1000 complete\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.fixture(scope="module")
def wide_pool(pipeline, tmp_path_factory):
    """A pool store of more rows than one scan tile, so a stream of it has two blocks."""
    path = tmp_path_factory.mktemp("wide") / "pool.bbgc"
    assert main(["sample", "--source", str(pipeline["spec"]), "--n", "9000",
                 "--role", "pool", "--seed", "3", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("after", ["hold", "more"])
def test_diagnose_reads_a_pool_on_a_pipe_once(pipeline, wide_pool, tmp_path, after):
    # the report's curves come from the one pass of the scan, so a pool on a
    # pipe gives the report of its file, and no byte past its last record is read
    def argv(pool, out):
        return ["diagnose", "--anchors", str(pipeline["anchors"]), "--pool", pool,
                "--curve-sizes", "10,80,9000", "--seed", "3", "--out", str(out)]

    want, got = tmp_path / "want.json", tmp_path / "got.json"
    assert main(argv(str(wide_pool), want)) == 0
    run = _run_on_a_pipe(wide_pool.read_bytes(), after, lambda path: argv(path, got))
    assert run.returncode == 0, run.stderr[-400:]
    assert got.read_bytes() == want.read_bytes()


def _fault_in_the_last_block(fault: str, pipeline, path) -> tuple[str, str]:
    """A copy of the pipeline's pool at ``path`` with ``fault`` in its last
    1000-row block, and the message that reports it."""
    st = read_store(pipeline["pool"])
    rec = record_dtype(st.latent_dim, st.embed_dim)
    blob = bytearray(pipeline["pool"].read_bytes())
    if fault == "truncated":
        path.write_bytes(bytes(blob[:HEADER.size + 2300 * rec.itemsize + 9]))
        return str(path), "header promises 2500 records, only 2300 complete"
    if fault == "non-unit":
        at = HEADER.size + 2400 * rec.itemsize + rec.fields["embedding"][1]
        blob[at:at + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        return str(path), "embedding 2400 has norm nan, not 1"
    at = HEADER.size + 2450 * rec.itemsize   # row 2450's latent becomes anchor 9's
    blob[at:at + 4 * st.latent_dim] = read_store(pipeline["anchors"]).latents[9].astype(
        "<f4").tobytes()
    path.write_bytes(bytes(blob))
    return None, "anchor latents appear in the pool"


@pytest.mark.parametrize("fault", ["truncated", "non-unit", "anchor latent"])
@pytest.mark.parametrize("command", ["diagnose", "find-modes"])
def test_a_fault_in_the_last_pool_block_exits_3_with_no_output(pipeline, tmp_path, capsys,
                                                                monkeypatch, command, fault):
    # blocks of 1000 rows: each fault shows only after two blocks were scanned,
    # and is reported as it was when the pool was read whole before its scan
    import bbgc.cli
    monkeypatch.setattr(bbgc.cli, "TILE_COLS", 1000)
    where, message = _fault_in_the_last_block(fault, pipeline, tmp_path / "pool.bbgc")
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main([*_analysis_argv(command, pipeline, pipeline["anchors"], tmp_path / "pool.bbgc"),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {where + ': ' if where else ''}{message}\n"
    assert not out.exists()


@pytest.mark.parametrize("method", ["gmm", "is"])
def test_calibrate_refuses_an_input_it_cannot_hash(pipeline, tmp_path, capsys, method):
    # the digest was taken after the command had drained the pipe: the
    # sha256 of zero bytes, e3b0c442..., with exit 0
    r, w = os.pipe()
    os.write(w, pipeline["report"].read_bytes())   # a few KB: the pipe holds them
    os.close(w)
    out = tmp_path / "model.json"
    argv = (["--source", str(pipeline["spec"])] if method == "gmm"
            else ["--pool", str(pipeline["pool"])])
    capsys.readouterr()
    try:
        code = main(["calibrate", method, *argv, "--anchors", str(pipeline["anchors"]),
                     "--report", f"/dev/fd/{r}", "--out", str(out)])
    finally:
        os.close(r)
    assert code == 3
    assert capsys.readouterr().err == \
        f"error: /dev/fd/{r}: not a regular file; calibrate records its sha256\n"
    assert not out.exists()


@pytest.mark.parametrize("method", ["gmm", "is"])
def test_evaluate_reads_its_model_file_once(pipeline, tmp_path, monkeypatch, method):
    model = tmp_path / "model.json"
    argv = (["--source", str(pipeline["spec"]), "--kmeans-k", "8", "--n-fit", "2000"]
            if method == "gmm" else ["--pool", str(pipeline["pool"]), "--hull-size", "40"])
    assert main(["calibrate", method, *argv, "--anchors", str(pipeline["anchors"]),
                 "--report", str(pipeline["report"]), "--out", str(model)]) == 0
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["evaluate", "--source", str(pipeline["spec"]), "--model", str(model),
                 "--anchors", "50", "--pool", "400", "--out", str(tmp_path / "e.json")]) == 0
    assert opened.count(str(model)) == 1
