import json

import pytest

import jsqldp
from jsqldp.cli import run

MM1 = {"K": 1, "M": 1, "admissible": [[1]], "lambda": [1], "mu": [1]}
MM1_STABLE = {"K": 1, "M": 1, "admissible": [[1]], "lambda": [1], "mu": [2]}
TWO_QUEUE = {"K": 2, "M": 1, "admissible": [[1, 2]], "lambda": [3], "mu": [1, 1]}
WEIGHTED = {"K": 2, "M": 2, "admissible": [[1], [1, 2]],
            "weights": [{"1": 1}, {"1": "1/2", "2": "1/3"}], "lambda": [1, 2], "mu": [2, 1]}


@pytest.fixture
def topo_file(tmp_path):
    def write(raw, name="net.json"):
        p = tmp_path / name
        p.write_text(json.dumps(raw))
        return str(p)

    return write


class TestErrors:
    def test_missing_topology_is_exit_2(self, tmp_path, capsys):
        code = run(["rate", "--topology", str(tmp_path / "nope.json"),
                    "--x", "1", "--y", "1"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "topology not found" in err["error"]

    def test_invalid_topology_is_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"K": 1, "M": 1, "admissible": [[]],
                                 "lambda": [1], "mu": [1]}))
        assert run(["rate", "--topology", str(p), "--x", "1", "--y", "1"]) == 2

    def test_malformed_topology_is_exit_2(self, tmp_path, capsys):
        # a JSON list where the description object belongs
        p = tmp_path / "list.json"
        p.write_text(json.dumps([MM1]))
        assert run(["rate", "--topology", str(p), "--x", "1", "--y", "1"]) == 2
        assert "invalid topology" in json.loads(capsys.readouterr().err)["error"]

    def test_wrong_vector_length_is_exit_2(self, topo_file, capsys):
        assert run(["rate", "--topology", topo_file(MM1),
                    "--x", "1 2", "--y", "1"]) == 2

    @pytest.mark.parametrize("event", ["terminal:k=1,T=1", "terminal:k=1,c=abc,T=1",
                                       "terminal:k=1,c=1,t=5"])
    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_malformed_event_is_exit_2(self, topo_file, tmp_path, capsys, event, command):
        argv = [command, "--topology", topo_file(MM1), "--event", event]
        if command == "verify":
            argv += ["--out", str(tmp_path / "v.csv")]
        assert run(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert "event" in err["error"]

    FLUID_INPUTS = {"t": [0.0, 1.0], "a": [[0.0], [3.0]], "b": [[0.0, 0.0], [1.0, 1.0]]}
    PATH = {"t": [0.0, 1.0], "q": [[0.0, 0.0], [1.0, 1.0]]}

    @pytest.mark.parametrize("command,text,message", [
        ("fluid", json.dumps({k: v for k, v in FLUID_INPUTS.items() if k != "a"}), "lacks 'a'"),
        ("fluid", json.dumps({k: v for k, v in FLUID_INPUTS.items() if k != "b"}), "lacks 'b'"),
        ("fluid", json.dumps({k: v for k, v in FLUID_INPUTS.items() if k != "t"}), "lacks 't'"),
        ("fluid", json.dumps(FLUID_INPUTS | {"b": [[0.0], [1.0]]}), "b.dim=1"),
        ("fluid", '{"t": [0, 1], "a": ', "not valid JSON"),
        ("action", json.dumps({"t": [0.0, 1.0]}), "lacks 'q'"),
        ("action", json.dumps({"q": PATH["q"]}), "lacks 't'"),
        ("action", json.dumps(PATH | {"t": 1.0}), "'q'"),
        ("action", json.dumps([PATH]), "lacks 't', 'q'"),
        ("action", "not json", "not valid JSON"),
        ("fluid", json.dumps(FLUID_INPUTS | {"a": [[3.0], [0.0]]}), "must be nondecreasing"),
        ("fluid", json.dumps(FLUID_INPUTS | {"t": [0.0, 0.5]}), "ending at 0.5"),
        # json reads NaN and Infinity; a NaN knot used to fail as a wrong
        # number of entries of a state x the caller never passed
        ("action", json.dumps(PATH | {"q": [[0.0, 0.0], [float("nan"), 1.0]]}), "must be finite"),
        ("fluid", json.dumps(FLUID_INPUTS | {"t": [0.0, float("inf")]}), "must be finite"),
        # used to exit 2 with "evaluation outside path domain", naming no argument
        ("fluid", json.dumps(FLUID_INPUTS | {"t": [0.5, 1.0]}), "starting at 0.5, 0.5"),
    ], ids=["fluid-no-a", "fluid-no-b", "fluid-no-t", "fluid-b-width", "fluid-bad-json",
            "action-no-q", "action-no-t", "action-scalar-t", "action-not-object",
            "action-bad-json", "fluid-decreasing", "fluid-short", "action-nan-knot",
            "fluid-infinite-breakpoint", "fluid-late"])
    def test_malformed_input_file_is_exit_2(self, topo_file, tmp_path, capsys,
                                           command, text, message):
        f = tmp_path / "input.json"
        f.write_text(text)
        if command == "fluid":
            argv = ["fluid", "--q0", "1 0", "--inputs", str(f), "--T", "1",
                    "--out", str(tmp_path / "fluid.csv")]
        else:
            argv = ["action", "--path", str(f)]
        assert run(argv + ["--topology", topo_file(TWO_QUEUE)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert message in err["error"]

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--n", "0", "--T", "1"], "n=0"),
        (["simulate", "--n", "5", "--T", "-1"], "T=-1.0"),
        (["simulate", "--n", "5", "--T", "1", "--q0", "-1 0"], "q0_scaled="),
        (["simulate", "--n", "5", "--T", "1", "--grid", "0"], "grid_step=0.0"),
        (["verify", "--event", "terminal:k=1,c=1,T=1", "--scales", "5,x"], "--scales"),
        (["verify", "--event", "terminal:k=1,c=1,T=1", "--scales", "5,10", "--reps", "1,2,3"],
         "--reps"),
        (["fluid", "--q0", "1 0", "--T", "0"], "T=0.0"),
        (["rate", "--x", "-1 0", "--y", "0 0"], "x=["),
        (["optimize", "--event", "terminal:k=3,c=1,T=1"], "queue 3 is not one of the 2"),
        (["optimize", "--event", "terminal:k=1,c=1,T=1", "--segments", "0"], "segments=0"),
        (["rate", "--x", "1 1", "--y", "0 0", "--tol", "0"], "tol=0.0"),
        (["rate", "--x", "1 1", "--y", "0 0", "--oracle", "--oracle-step", "0"],
         "grid_step=0.0"),
        (["rate", "--x", "1 1", "--y", "0 0", "--oracle", "--oracle-radius", "-1"],
         "box_radius=-1.0"),
        (["rate", "--x", "1 1", "--y", "nan 0"], "y=[nan, 0.0]"),
        (["optimize", "--event", "running_max:k=1,c=1,T=1"], "only terminal events"),
        (["verify", "--event", "running_max:k=1,c=1,T=1"], "only terminal events"),
        (["optimize", "--event", "terminal:k=1,c=1,T=-1"], "event horizon T"),
        (["optimize", "--event", "terminal:k=1,c=1,T=0"], "event horizon T"),
        (["optimize", "--event", "terminal:k=1,c=1,T=inf"], "event horizon T"),
        (["verify", "--event", "terminal:k=1,c=nan,T=1"], "event threshold c"),
        (["fluid", "--q0", "1 0", "--T", "1", "--h", "nan"], "h=nan"),
        (["simulate", "--n", "5", "--T", "1", "--grid", "nan"], "grid_step=nan"),
        # a likely event, so the path search returns 0 and the Monte Carlo
        # run checks its counts
        (["verify", "--event", "terminal:k=1,c=0.2,T=1", "--scales", "5", "--reps", "0"],
         "reps=[0]"),
        (["optimize", "--event", "terminal:k=0,c=1,T=1"], "k=0"),
        # used to be truncated to 2 replicates
        (["verify", "--event", "terminal:k=1,c=0.2,T=1", "--scales", "5", "--reps", "2.5"],
         "reps=[2.5]"),
        (["verify", "--event", "terminal:k=1,c=0.2,T=1", "--scales", "5.5"], "scales=[5.5]"),
        # the fit ran on two rows of the same replicates
        (["verify", "--event", "terminal:k=1,c=0.6,T=1", "--scales", "5,5"], "scales=[5, 5]"),
        # named no field: "dictionary update sequence element #0 has length 1"
        (["optimize", "--event", "terminal:c"], "field 'c' must be written name=value"),
    ], ids=["simulate-n0", "simulate-T-negative", "simulate-q0-negative", "simulate-grid0",
            "verify-scales-unparsable", "verify-reps-count", "fluid-T0", "rate-x-negative",
            "optimize-queue-out-of-range", "optimize-segments0", "rate-tol0",
            "rate-oracle-step0", "rate-oracle-radius-negative", "rate-y-nan",
            "optimize-running-max", "verify-running-max", "optimize-T-negative",
            "optimize-T0", "optimize-T-inf", "verify-c-nan", "fluid-h-nan", "simulate-grid-nan", "verify-reps0", "optimize-k0",
            "verify-reps-fractional", "verify-scales-fractional", "verify-scales-repeated",
            "optimize-event-field-without-equals"])
    def test_bad_argument_value_is_exit_2(self, topo_file, tmp_path, capsys, argv, message):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps(self.FLUID_INPUTS))
        extra = ["--inputs", str(inputs)] if argv[0] == "fluid" else []
        out = ["--out", str(tmp_path / "out.csv")] if argv[0] in ("simulate", "verify",
                                                                  "fluid") else []
        code = run(argv + extra + out + ["--topology", topo_file(TWO_QUEUE)])
        assert code == 2
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "out.csv").exists()

    def test_step_count_overflow_is_exit_2(self, topo_file, tmp_path, capsys):
        # the drain net on [0, 1e300] at h=1e-10: T/h overflows to inf, which
        # used to escape as a bare OverflowError, exit 1 with a traceback
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps({"t": [0.0, 1e300], "a": [[0.0], [1e300]],
                                      "b": [[0.0], [2e300]]}))
        out = tmp_path / "fluid.csv"
        assert run(["fluid", "--topology", topo_file(MM1_STABLE), "--q0", "0",
                    "--inputs", str(inputs), "--T", "1e300", "--h", "1e-10",
                    "--out", str(out)]) == 2
        assert "T=1e+300 and step h=1e-10" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rate", "action", "fluid", "simulate"])
    def test_unreadable_or_unwritable_path_is_exit_2(self, topo_file, tmp_path, capsys,
                                                     command):
        # a directory where a file is read, or an output in a missing directory
        net = topo_file(TWO_QUEUE)
        argv = {"rate": ["rate", "--topology", str(tmp_path), "--x", "1 1", "--y", "0 0"],
                "action": ["action", "--topology", net, "--path", str(tmp_path)],
                "fluid": ["fluid", "--topology", net, "--q0", "1 0", "--inputs", str(tmp_path),
                          "--T", "1", "--out", str(tmp_path / "fluid.csv")],
                "simulate": ["simulate", "--topology", net, "--n", "5", "--T", "1",
                             "--out", str(tmp_path / "missing" / "run.csv")]}[command]
        assert run(argv) == 2
        assert "error" in json.loads(capsys.readouterr().err)

    def test_oracle_beyond_budget_is_exit_2(self, topo_file, capsys):
        code = run(["rate", "--topology", topo_file(WEIGHTED), "--x", "1 1", "--y", "0 0",
                    "--oracle"])
        assert code == 2
        assert "dimension budget" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_no_finite_start_is_exit_3(self, topo_file, tmp_path, capsys, command):
        # on the pair net every path the search tries ends off the tie
        argv = [command, "--topology", topo_file(TWO_QUEUE), "--event", "terminal:k=1,c=1,T=1"]
        if command == "verify":
            argv += ["--scales", "5", "--reps", "100", "--out", str(tmp_path / "v.csv")]
        assert run(argv) == 3
        assert "finite action" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "v.csv").exists()

    def test_bad_count_is_exit_2_before_the_search(self, topo_file, tmp_path, capsys):
        # the event has no finite start, so a search run first would exit 3
        code = run(["verify", "--topology", topo_file(TWO_QUEUE),
                    "--event", "terminal:k=1,c=1,T=1", "--scales", "5", "--reps", "0",
                    "--out", str(tmp_path / "v.csv")])
        assert code == 2
        assert "reps=[0]" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "v.csv").exists()

    def test_solver_failure_is_exit_4(self, topo_file, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise jsqldp.SolverError("line search failed")

        monkeypatch.setattr("jsqldp.cli.local_rate", fail)
        assert run(["rate", "--topology", topo_file(MM1), "--x", "1", "--y", "1"]) == 4
        assert json.loads(capsys.readouterr().err) == {"error": "line search failed"}

    def test_an_overflowing_rate_program_is_exit_4(self, topo_file, capsys):
        # exited 1 with an OverflowError traceback
        tiny = {"K": 1, "M": 1, "admissible": [[1]], "lambda": [1e-9], "mu": [1e-300]}
        assert run(["rate", "--topology", topo_file(tiny), "--x", "1", "--y=-2e9"]) == 4
        assert json.loads(capsys.readouterr().err) == {
            "error": "the rate program overflows a float"}

    def test_too_few_hits_is_exit_3(self, topo_file, tmp_path, capsys):
        code = run(["verify", "--topology", topo_file(MM1_STABLE),
                    "--event", "terminal:k=1,c=1,T=1",
                    "--scales", "10", "--reps", "100",
                    "--out", str(tmp_path / "v.csv")])
        assert code == 3
        assert "replication count too low" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "v.csv").exists()


class TestRate:
    def test_prints_witness_json(self, topo_file, capsys):
        assert run(["rate", "--topology", topo_file(MM1),
                    "--x", "1", "--y", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["L"] == pytest.approx(0.245144, abs=1e-4)
        assert out["feasible"]
        assert out["domain"] == {"I": [], "J": [[1]]}

    def test_oracle_flag(self, topo_file, capsys):
        assert run(["rate", "--topology", topo_file(MM1), "--x", "1", "--y", "1",
                    "--oracle", "--oracle-step", "0.002"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["oracle"] == pytest.approx(out["L"], abs=1e-2)

    def test_infeasible_velocity(self, topo_file, capsys):
        assert run(["rate", "--topology", topo_file(TWO_QUEUE),
                    "--x", "2 1", "--y", "0.5 0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["L"] == math_inf_json()
        assert not out["feasible"]
        assert "certificate" in out

    def test_empty_queue_cannot_shrink(self, topo_file, capsys):
        assert run(["rate", "--topology", topo_file(MM1_STABLE), "--x", "0", "--y", "-1",
                    "--oracle"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["L"] == out["oracle"] == math_inf_json()
        assert out["feasible"] is False
        assert out["certificate"] == "queue 1 cannot shrink: it is empty"
        assert "d" not in out


def math_inf_json():
    return float("inf")


def test_manifest_carries_package_version(topo_file, tmp_path):
    out = tmp_path / "run.csv"
    assert run(["simulate", "--topology", topo_file(TWO_QUEUE),
                "--n", "20", "--T", "1", "--seed", "3", "--out", str(out)]) == 0
    man = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert man["version"] == jsqldp.__version__


class TestSimulate:
    def test_writes_csv_and_manifest(self, topo_file, tmp_path):
        out = tmp_path / "run.csv"
        assert run(["simulate", "--topology", topo_file(TWO_QUEUE),
                    "--n", "20", "--T", "1", "--seed", "3",
                    "--q0", "1 0", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[:3] == ["t", "Q_1", "Q_2"]
        man = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert man["subcommand"] == "simulate"
        assert man["seeds"] == [3]
        assert "run.csv" in man["outputs"]

    def test_tie_flag_picks_the_tie_rule(self, topo_file, tmp_path):
        # two empty queues: the first arrival ties, and 'uniform' may send it to queue 2
        tops = set()
        for seed in range(8):
            out = tmp_path / f"{seed}.csv"
            assert run(["simulate", "--topology", topo_file(TWO_QUEUE), "--n", "1",
                        "--T", "5", "--seed", str(seed), "--tie", "uniform",
                        "--out", str(out)]) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            tops.add(next(tuple(r[1:3]) for r in rows if r[1:3] != ["0.0", "0.0"]))
        assert tops == {("1.0", "0.0"), ("0.0", "1.0")}

    def test_reruns_are_byte_identical(self, topo_file, tmp_path):
        args = ["simulate", "--topology", topo_file(TWO_QUEUE),
                "--n", "20", "--T", "1", "--seed", "3", "--q0", "1 0"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        m1 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        m2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert m1["outputs"]["a.csv"] == m2["outputs"]["b.csv"]


class TestFluid:
    def test_solves_and_writes(self, topo_file, tmp_path):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps({
            "t": [0.0, 1.0],
            "a": [[0.0], [3.0]],
            "b": [[0.0, 0.0], [1.0, 1.0]],
        }))
        out = tmp_path / "fluid.csv"
        assert run(["fluid", "--topology", topo_file(TWO_QUEUE),
                    "--q0", "1 0", "--inputs", str(inputs),
                    "--T", "1", "--h", "0.001", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        last = rows[-1].split(",")
        # terminal state of the worked example is (1, 1)
        assert float(last[1]) == pytest.approx(1.0, abs=1e-6)
        assert float(last[2]) == pytest.approx(1.0, abs=1e-6)


class TestActionAndOptimize:
    def test_action_on_path_file(self, topo_file, tmp_path, capsys):
        pf = tmp_path / "path.json"
        pf.write_text(json.dumps({"t": [0.0, 1.0], "q": [[0.0], [1.0]]}))
        assert run(["action", "--topology", topo_file(MM1),
                    "--path", str(pf)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out.keys() == {"total", "segments"}
        assert out["total"] == pytest.approx(0.245144, abs=1e-4)
        assert out["segments"]

    def test_optimize_trivial_event(self, topo_file, capsys):
        assert run(["optimize", "--topology", topo_file(TWO_QUEUE),
                    "--event", "terminal:k=1,c=0.2,T=1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 0.0

    def test_optimize_drift_reversal(self, topo_file, capsys):
        assert run(["optimize", "--topology", topo_file(MM1_STABLE),
                    "--event", "terminal:k=1,c=1,T=1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(0.6931471805599454, abs=1e-12)

    @pytest.mark.parametrize("flag", ["--starts", "--seed"])
    def test_optimize_takes_no_starts_or_seed(self, topo_file, capsys, flag):
        # the search runs once, from the straight path, with no RNG
        with pytest.raises(SystemExit) as exc:
            run(["optimize", "--topology", topo_file(MM1_STABLE),
                 "--event", "terminal:k=1,c=1,T=1", flag, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVerify:
    def test_writes_table_and_report(self, topo_file, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        assert run(["verify", "--topology", topo_file(MM1_STABLE),
                    "--event", "terminal:k=1,c=1,T=1",
                    "--scales", "5,10", "--reps", "1e5,1e6",
                    "--seed", "7", "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert abs(printed["fit"]["intercept"] - 0.6931) / 0.6931 <= 0.15
        assert printed["variational_value"] == pytest.approx(0.6931, abs=5e-3)
        lines = out.read_text().splitlines()
        assert lines[0] == "inv_n,n,reps,hits,p_hat,rate"
        assert len(lines) == 3
        report = json.loads((tmp_path / "verify.csv.json").read_text())
        assert report["fit"] == printed["fit"]
        assert (tmp_path / "verify.csv.manifest.json").exists()

    def test_variational_value_is_optimize_value_at_any_seed(self, topo_file, tmp_path,
                                                             capsys):
        # --seed seeds the Monte Carlo run only
        net = topo_file(MM1_STABLE)
        event = ["--event", "terminal:k=1,c=1,T=1"]
        assert run(["optimize", "--topology", net, *event]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        for seed in ("3", "7"):
            assert run(["verify", "--topology", net, *event, "--scales", "5,10",
                        "--reps", "2e4", "--seed", seed,
                        "--out", str(tmp_path / f"{seed}.csv")]) == 0
            assert json.loads(capsys.readouterr().out)["variational_value"] == value


class TestAcceptance:
    def test_one_criterion_prints_one_pass_line(self, capsys):
        assert run(["acceptance", "--only", "2-golden"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("2-golden-value  PASS  (")
