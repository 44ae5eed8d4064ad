"""End-to-end command-line pipelines and exit-code contracts."""

import hashlib
import json
import sys

import numpy as np
import pytest

from bbgc.cli import main
from bbgc.jsonutil import read_json
from bbgc.rng import STREAM_ANCHORS, STREAM_POOL, CounterStream
from bbgc.source import SubprocessSource, SyntheticSource, build_synthetic_model
from bbgc.store import HEADER, MAGIC, VERSION, latents_disjoint, read_store

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
        main(["sample", "--source", str(pipeline["spec"]), "--n", "5",
              "--seed", "-1", "--out", str(tmp_path / "x.bbgc")])
    assert err.value.code == 2


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


def test_worker_dim_mismatch_exit_3(pipeline):
    assert main(["worker", "--source", str(pipeline["spec"]),
                 "--latent-dim", "7"]) == 3
