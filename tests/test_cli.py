import json
import socket
import threading
import time

import numpy as np
import pytest

from privfair import cli
from privfair.curator import Curator, CuratorQuery, CuratorServer
from privfair.data import encode_sensitive, load_german, DATASET_ENCODINGS

from conftest import FIXTURES, serve_in_background

EXIT_USAGE = 2  # argparse's exit status for a usage error


def run_cli(args):
    return cli.main(args)


def german_args(extra):
    return ["--dataset", "german", "--data", str(FIXTURES / "german.data")] + extra


@pytest.fixture(scope="module")
def tree_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("trees") / "tree.json"
    code = run_cli(
        ["fit"] + german_args(
            ["--max-height", "3", "--minleaf", "0.05", "--seed", "7", "--out", str(out)]
        )
    )
    assert code == cli.EXIT_OK
    return out


# ---------------------------------------------------------------------------
# fit

def test_fit_writes_tree_and_metrics(tree_file, capsys):
    assert tree_file.exists()
    record = json.loads(tree_file.read_text())
    assert record["root"]["type"] in ("split", "leaf")


def test_fit_bad_path_names_it(capsys):
    code = run_cli(["fit", "--dataset", "german", "--data", "/nope/missing.data"])
    assert code == cli.EXIT_DATA
    assert "missing.data" in capsys.readouterr().err


def test_fit_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli(
            ["fit"] + german_args(
                ["--max-height", "3", "--minleaf", "0.05", "--seed", "9", "--out", str(out)]
            )
        ) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# audit

def audit_args(tree_file, extra=None):
    return ["audit"] + german_args([
        "--tree", str(tree_file), "--sensitive", "sex",
        "--epsilon", "0.5", "--seed", "11",
    ] + (extra or []))


def test_audit_noiseless_stub_matches_exact_sp(tree_file, tmp_path, capsys, noiseless):
    out = tmp_path / "report.json"
    code = run_cli(audit_args(tree_file, ["--mechanism", "laplace", "--out", str(out)]))
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())

    from privfair.metrics import PredictionSet, sp_ratio_kary
    from privfair.tree import load_tree, predict_dataset, prune_redundant

    _, (test_ds, test_sens) = load_german(FIXTURES / "german.data")
    table = encode_sensitive(test_sens, DATASET_ENCODINGS["german"]["sex"])
    tree = prune_redundant(load_tree(tree_file))
    want = sp_ratio_kary(
        PredictionSet(test_ds.labels, predict_dataset(tree, test_ds), table.groups, table.k)
    )
    assert report["sp_estimate"] == pytest.approx(want, abs=1e-12)
    assert report["eighty_percent_rule"] == (report["sp_estimate"] >= 0.8)


@pytest.mark.parametrize("flag", [["--mechanism", "exact"], ["--allow-exact-stub"]],
                         ids=["mechanism-exact", "allow-exact-stub"])
def test_audit_has_no_noiseless_option(tree_file, flag, capsys):
    # the noiseless stub was a mechanism choice behind a flag of its own
    with pytest.raises(SystemExit) as exc:
        cli.main(audit_args(tree_file, flag))
    assert exc.value.code == EXIT_USAGE
    assert flag[0] in capsys.readouterr().err


def test_audit_over_budget_exit_code(tree_file):
    code = run_cli(audit_args(tree_file, ["--budget", "0.25"]))
    assert code == cli.EXIT_BUDGET


def test_audit_zero_budget_is_data_error(tree_file, capsys):
    # a zero budget used to fall back to --epsilon and spend it
    assert run_cli(audit_args(tree_file, ["--budget", "0"])) == cli.EXIT_DATA
    assert "total_epsilon must be positive" in capsys.readouterr().err


def first_split(node, op):
    """The first split record with the op, depth first; None if there is none."""
    if node["type"] == "leaf":
        return None
    if node["op"] == op:
        return node
    return first_split(node["left"], op) or first_split(node["right"], op)


@pytest.mark.parametrize("mangle, fault", [
    (lambda record: record["root"].update(op="<="), "unknown clause op '<='"),
    (lambda record: record.pop("root"), "lacks the field 'root'"),
    (None, "tree file"),
    (lambda record: first_split(record["root"], "<").update(value="nan"), "clause value 'nan'"),
    (lambda record: first_split(record["root"], "<").update(value=True), "clause value True"),
    (lambda record: first_split(record["root"], "=").update(value=None), "clause value None"),
    (lambda record: first_split(record["root"], "=").update(value=5), "clause value 5"),
], ids=["op-le", "no-root", "not-json", "numeric-nan-text", "numeric-bool", "categorical-null",
        "categorical-number"])
def test_audit_malformed_tree_file_is_data_error(tree_file, tmp_path, mangle, fault, capsys):
    # these used to audit a categorical split on "<=", die with a traceback,
    # or audit a split whose value float() or str() had coerced
    broken = tmp_path / "broken.json"
    if mangle is None:
        broken.write_text("not json\n")
    else:
        record = json.loads(tree_file.read_text())
        mangle(record)
        broken.write_text(json.dumps(record))
    assert run_cli(audit_args(broken)) == cli.EXIT_DATA
    assert fault in capsys.readouterr().err


def test_audit_raw_definition_on_a_numeric_column_is_data_error(tree_file, capsys):
    # raw:age used to audit one group per age, most of them near empty
    args = ["audit"] + german_args(["--tree", str(tree_file), "--sensitive", "raw:age",
                                    "--epsilon", "0.5", "--seed", "11"])
    assert run_cli(args) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert "raw:age needs a categorical column" in captured.err
    assert "statistical parity estimate" not in captured.out


@pytest.mark.parametrize("definition, empty", [("gender=Male", "Male"), ("age=30", "30")])
def test_audit_definition_matching_no_row_is_data_error(tree_file, definition, empty, capsys):
    # the data holds "male", and age is numeric: both used to audit an empty
    # privileged group and print a parity estimate
    args = ["audit"] + german_args(["--tree", str(tree_file), "--sensitive", definition,
                                    "--epsilon", "0.5", "--seed", "11"])
    assert run_cli(args) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert f"group {empty!r} of {definition!r} has no row" in captured.err
    assert "statistical parity estimate" not in captured.out


def test_audit_golden_report(tree_file, tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(audit_args(tree_file, ["--out", str(out)]))
    assert code == cli.EXIT_OK
    golden = FIXTURES / "audit_report_golden.json"
    assert out.read_bytes() == golden.read_bytes()


def test_audit_report_schema(tree_file, tmp_path):
    out = tmp_path / "report.json"
    run_cli(audit_args(tree_file, ["--out", str(out)]))
    report = json.loads(out.read_text())
    types = {
        "sp_estimate": float, "accept_rates": list, "query_count": int,
        "query_bound": list, "invalid_cells": int, "total_cells": int,
        "invalid_ratio": float, "epsilon_spent": float, "eighty_percent_rule": bool,
        "mechanism": str, "sensitive": str, "seed": int,
    }
    for field_name, field_type in types.items():
        assert isinstance(report[field_name], field_type), field_name


# ---------------------------------------------------------------------------
# transport equivalence through the CLI

def test_audit_inproc_equals_wire(tree_file, tmp_path):
    _, (test_ds, test_sens) = load_german(FIXTURES / "german.data")
    table = encode_sensitive(test_sens, DATASET_ENCODINGS["german"]["sex"])
    curator = Curator(test_ds, table, total_epsilon=0.5, seed=11)
    server = CuratorServer(curator, "127.0.0.1", 0)
    serve_in_background(server)
    host, port = server.address
    try:
        wire_out = tmp_path / "wire.json"
        code = run_cli(audit_args(tree_file, ["--curator", f"connect={host}:{port}",
                                              "--out", str(wire_out)]))
        assert code == cli.EXIT_OK
        inproc_out = tmp_path / "inproc.json"
        assert run_cli(audit_args(tree_file, ["--out", str(inproc_out)])) == cli.EXIT_OK
        assert wire_out.read_bytes() == inproc_out.read_bytes()
    finally:
        server.shutdown()
        server.server_close()


def _answers(request, **answer):
    """An answers frame with one answer per batched query."""
    return {"type": "answers", "answers": [
        {"type": "answer", "k": 2, "mechanism": "laplace", "digest": "d", **answer}
        for _ in request["queries"]
    ]}


def audit_against_stub(tree_file, reply):
    """Exit code of an audit against a stub curator that answers its one
    request frame with reply(request)."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve_one():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as rfile:
            request = json.loads(rfile.readline())
            conn.sendall((json.dumps(reply(request)) + "\n").encode())

    thread = threading.Thread(target=serve_one, daemon=True)
    thread.start()
    try:
        port = listener.getsockname()[1]
        code = run_cli(audit_args(tree_file, ["--curator", f"connect=127.0.0.1:{port}"]))
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()
    return code


@pytest.mark.parametrize("reply", [
    lambda request: {"type": "refusal"},
    lambda request: {"type": "refusal", "remaining_epsilon": "0.5", "reason": "tired"},
    lambda request: _answers(request),
    lambda request: _answers(request, counts=["x", "1.0"]),
    lambda request: {"type": "answers"},
    lambda request: _answers(request, counts=["nan", "1.0"]),
    lambda request: _answers(request, counts=["1.0"]),
    lambda request: _answers(request, counts=["1.0", "1.0"], mechanism="gaussian"),
    lambda request: _answers(request, counts=["1.0", "1.0"], noise="none"),
], ids=["refusal-without-remaining", "refusal-with-unknown-reason", "answer-without-counts",
        "non-numeric-count", "answers-without-list", "nan-count", "one-cell-for-k-2",
        "wrong-mechanism", "unknown-answer-key"])
def test_audit_malformed_curator_reply_is_protocol_error(tree_file, reply, capsys):
    assert audit_against_stub(tree_file, reply) == cli.EXIT_PROTOCOL
    assert "protocol error" in capsys.readouterr().err


@pytest.mark.parametrize("reason", ["not-disjoint", "missing-batch-id"])
def test_audit_prints_the_refusal_reason(tree_file, reason, capsys):
    reply = {"type": "refusal", "remaining_epsilon": "0.5", "reason": reason}
    assert audit_against_stub(tree_file, lambda request: reply) == cli.EXIT_BUDGET
    assert f"refused ({reason})" in capsys.readouterr().err


def serve_capturing(monkeypatch, extra):
    """The curator that `curator-serve` builds, without serving it."""
    built = []

    class Captured:
        def __init__(self, curator, host, port):
            built.append(curator)
            self.address = (host, port)

        def serve_forever(self):
            pass

        def shutdown(self):
            pass

        def server_close(self):
            pass

    monkeypatch.setattr(cli, "CuratorServer", Captured)
    code = run_cli(["curator-serve"] + german_args([
        "--sensitive", "sex", "--budget", "1.0", "--curator", "serve=127.0.0.1:0", *extra]))
    assert code == cli.EXIT_OK
    return built.pop()


def test_curator_serve_without_a_seed_draws_noise_no_client_can_replay(monkeypatch, capsys):
    # --seed defaulted to 0: anyone with the code could draw the noise and subtract it
    query = CuratorQuery((), 0.1, "laplace")
    first, second = (serve_capturing(monkeypatch, []).answer(query).counts for _ in range(2))
    assert "warning" not in capsys.readouterr().err
    _, (test_ds, test_sens) = load_german(FIXTURES / "german.data")
    table = encode_sensitive(test_sens, DATASET_ENCODINGS["german"]["sex"])
    replayed = Curator(test_ds, table, seed=0).answer(query).counts
    assert not np.array_equal(first, second)
    assert not np.array_equal(first, replayed) and not np.array_equal(second, replayed)
    # an explicit seed replays its stream, and says what that costs
    seeded = serve_capturing(monkeypatch, ["--seed", "0"]).answer(query).counts
    assert np.array_equal(seeded, replayed)
    err = capsys.readouterr().err
    assert "warning: --seed 0" in err and "anyone who knows the seed" in err


def test_curator_serve_and_reconnect_budget_persists(tree_file, tmp_path):
    # start a real served curator via the CLI in a thread
    ready = {}

    def serve():
        ready["code"] = run_cli(
            ["curator-serve"] + german_args([
                "--sensitive", "sex", "--budget", "0.75", "--seed", "11",
                "--curator", "serve=127.0.0.1:43219",
            ])
        )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    for _ in range(100):
        try:
            socket.create_connection(("127.0.0.1", 43219), timeout=0.1).close()
            break
        except OSError:
            time.sleep(0.05)
    out1 = tmp_path / "r1.json"
    assert run_cli(audit_args(tree_file, ["--curator", "connect=127.0.0.1:43219",
                                          "--out", str(out1)])) == cli.EXIT_OK
    # second audit reconnects; the ledger carried over, 0.25 < 0.5 remains
    assert run_cli(audit_args(tree_file, ["--curator", "connect=127.0.0.1:43219"])) \
        == cli.EXIT_BUDGET


# ---------------------------------------------------------------------------
# experiment subcommand

def test_experiment_desk_scale_runs_and_manifest_rerun(tmp_path):
    out1 = tmp_path / "run1"
    args = ["experiment"] + german_args([
        "--which", "1", "--sensitive", "sex", "--seed", "3",
        "--runs", "3", "--out", str(out1),
    ])
    assert run_cli(args) == cli.EXIT_OK
    manifest = out1 / "experiment1_manifest.json"
    assert manifest.exists()

    out2 = tmp_path / "run2"
    rerun = ["experiment"] + german_args([
        "--sensitive", "sex", "--manifest", str(manifest), "--out", str(out2),
    ])
    assert run_cli(rerun) == cli.EXIT_OK
    assert (out2 / "experiment1_aggregates.csv").read_bytes() == \
        (out1 / "experiment1_aggregates.csv").read_bytes()
    assert (out2 / "experiment1_records.csv").read_bytes() == \
        (out1 / "experiment1_records.csv").read_bytes()


def test_experiment_2_1_writes_heatmap(tmp_path):
    out = tmp_path / "exp21"
    args = ["experiment"] + german_args([
        "--which", "2.1", "--sensitive", "sex", "--seed", "3",
        "--runs", "2", "--out", str(out),
    ])
    assert run_cli(args) == cli.EXIT_OK
    assert (out / "experiment2_1_heatmap.csv").exists()


def small_exp2_manifest():
    return {
        "experiment": "experiment2", "version": "0", "mechanism": "laplace",
        "config": {
            "epsilons": [0.25, 0.5], "runs": 2, "mechanisms": ["laplace"],
            "policy": ["uniform", "uniform"], "seed": 3, "minleafs": [0.05, 0.1],
            "exp2_max_height": 4, "exp2_feature_mode": "sqrt", "delta": 0.0,
        },
    }


def test_experiment_2_1_from_exp2_manifest_writes_heatmap(tmp_path):
    manifest = tmp_path / "experiment2_manifest.json"
    manifest.write_text(json.dumps(small_exp2_manifest()))
    out = tmp_path / "rerun"
    args = ["experiment"] + german_args([
        "--which", "2.1", "--sensitive", "sex", "--manifest", str(manifest), "--out", str(out),
    ])
    assert run_cli(args) == cli.EXIT_OK
    assert (out / "experiment2_1_heatmap.csv").exists()
    stored = json.loads((out / "experiment2_manifest.json").read_text())
    assert stored["config"] == small_exp2_manifest()["config"]


@pytest.mark.parametrize("corrupt", [
    lambda m: m["config"].pop("runs"),
    lambda m: m["config"].update(bogus=1),
    lambda m: m.update(experiment="experiment9"),
    lambda m: m["config"].update(runs="many"),
    lambda m: m["config"].update(policy="uniform"),
    lambda m: m["config"].update(mechanisms=["exact"]),
], ids=["missing-key", "unknown-key", "unknown-experiment", "bad-runs", "bad-policy",
        "noiseless-mechanism"])
def test_experiment_malformed_manifest_is_data_error(tmp_path, corrupt):
    manifest = small_exp2_manifest()
    corrupt(manifest)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    args = ["experiment"] + german_args([
        "--sensitive", "sex", "--manifest", str(path), "--out", str(tmp_path / "out"),
    ])
    assert run_cli(args) == cli.EXIT_DATA


def test_experiment_manifest_not_json_is_data_error(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{not json")
    args = ["experiment"] + german_args(["--sensitive", "sex", "--manifest", str(path)])
    assert run_cli(args) == cli.EXIT_DATA


@pytest.mark.parametrize("flags", [["--runs", "5"], ["--seed", "9"], ["--seed", "0"],
                                   ["--paper-scale"]],
                         ids=["runs", "seed", "seed-zero", "paper-scale"])
def test_experiment_manifest_with_run_flags_is_a_usage_error(tmp_path, capsys, flags):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(small_exp2_manifest()))
    out = tmp_path / "out"
    args = ["experiment"] + german_args([
        "--sensitive", "sex", "--manifest", str(path), "--out", str(out), *flags,
    ])
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage:") and flags[0] in err
    assert not out.exists()


def test_paper_scale_flag_in_help(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "--help"])
    assert exc.value.code == 0
    assert "--paper-scale" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit"])  # missing required args
    assert exc.value.code == 2


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    assert cli._out_dir(None) == tmp_path


# ---------------------------------------------------------------------------
# generic csv datasets and policy flag

def test_csv_schema_dataset(tmp_path):
    schema = {
        "label": "outcome",
        "positive_label": "yes",
        "features": {"score": "numeric", "grade": "categorical"},
        "sensitive": {"group": "categorical"},
    }
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema))
    rng = np.random.Generator(np.random.PCG64(2))
    rows = ["score,grade,group,outcome"]
    for i in range(240):
        score = round(float(rng.normal(0, 1)), 3)
        grade = str(rng.choice(["a", "b"]))
        group = str(rng.choice(["x", "y"]))
        outcome = "yes" if score + (grade == "a") > 0.4 else "no"
        rows.append(f"{score},{grade},{group},{outcome}")
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(rows) + "\n")

    tree_path = tmp_path / "tree.json"
    code = run_cli([
        "fit", "--dataset", f"csv:{schema_path}", "--train", str(data_path),
        "--max-height", "3", "--minleaf", "0.05", "--seed", "1", "--out", str(tree_path),
    ])
    assert code == cli.EXIT_OK
    report_path = tmp_path / "report.json"
    code = run_cli([
        "audit", "--dataset", f"csv:{schema_path}", "--train", str(data_path),
        "--tree", str(tree_path), "--sensitive", "group=x", "--epsilon", "0.5",
        "--policy", "zero,uniform", "--seed", "2", "--out", str(report_path),
    ])
    assert code == cli.EXIT_OK
    report = json.loads(report_path.read_text())
    assert 0.0 <= report["sp_estimate"] <= 1.0


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_fit_on_a_csv_with_a_non_finite_cell_is_data_error(tmp_path, cell, capsys):
    # a nan cell used to fit x < NaN splits with leaves of no row
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({"label": "y", "features": {"x": "numeric"}}))
    rows = ["x,y"] + [f"{i % 7}.5,{i % 2}" for i in range(60)]
    rows[31] = f"{cell},1"
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(rows) + "\n")
    code = run_cli(["fit", "--dataset", f"csv:{schema_path}", "--train", str(data_path),
                    "--max-height", "3", "--minleaf", "0.05", "--show",
                    "--out", str(tmp_path / "tree.json")])
    assert code == cli.EXIT_DATA
    assert f"line 32: column 'x' has non-finite value {cell!r}" in capsys.readouterr().err


def test_bad_policy_flag_is_data_error(tree_file):
    assert run_cli(audit_args(tree_file, ["--policy", "zero"])) == cli.EXIT_DATA
    assert run_cli(audit_args(tree_file, ["--policy", "nope,uniform"])) == cli.EXIT_DATA


def test_experiment_desk_scale_fixture_under_time_budget(tmp_path):
    start = time.time()
    args = ["experiment"] + german_args([
        "--which", "1", "--sensitive", "sex", "--seed", "4", "--out", str(tmp_path),
    ])
    assert run_cli(args) == cli.EXIT_OK
    assert time.time() - start < 300  # desk scale on fixtures is minutes at most
