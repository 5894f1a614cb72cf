"""Command-line surface: subcommands, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dirmax
from dirmax.cli import _build_parser, run
from dirmax.grid_ops import Grid2D, OperatorConfig, m1
from dirmax.lacunary import (
    DirectionSet,
    LacunaryDecomposition,
    binary_decomposition,
    build_decomposition,
    random_complete_decomposition,
)
from test_lacunary import COMPLETION_CORPUS, reference_text


@pytest.fixture
def dirs_file(tmp_path):
    p = tmp_path / "dirs.json"
    p.write_text(json.dumps([0.05, 0.11, 0.23, 0.41, 0.55, 0.78, 0.9]))
    return p


@pytest.fixture
def grid_file(tmp_path):
    g = Grid2D(np.random.default_rng(0).uniform(0, 1, (48, 48)), 1 / 8)
    p = tmp_path / "g.grd"
    g.save(p)
    return p


class TestExitCodes:
    def test_no_args_usage(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["--bogus"]) == 1

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_missing_input_io_or_validation(self, tmp_path):
        code = run(
            ["decompose", "--mode", "binary", "--input", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "o.json")]
        )
        assert code == 2

    def test_non_json_input_is_validation_failure(self, tmp_path, capsys):
        src = tmp_path / "dirs.json"
        src.write_text("0.1, 0.2\n")
        assert run(["decompose", "--mode", "binary", "--input", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dirmax: ") and err.count("\n") == 1

    def test_non_json_directions_is_validation_failure(self, grid_file, tmp_path, capsys):
        bad = tmp_path / "dirs.json"
        bad.write_bytes(b"\xff\xfe not json")
        assert run(["apply", "--op", "m1", "--grid", str(grid_file),
                    "--directions", str(bad), "--out", str(tmp_path / "o.grd")]) == 1
        assert capsys.readouterr().err.startswith("dirmax: ")

    def test_decomposition_without_chain_is_validation_failure(self, tmp_path, capsys):
        d = tmp_path / "d.json"
        d.write_text(json.dumps({"x": 1}))
        assert run(["overlap", "--decomp", str(d)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dirmax: ") and "chain" in err and err.count("\n") == 1

    def test_truncated_grid_is_validation_failure(self, grid_file, dirs_file, tmp_path, capsys):
        raw = grid_file.read_bytes()
        grid_file.write_bytes(raw[: len(raw) // 2])
        out = tmp_path / "o.grd"
        assert run(["apply", "--op", "m1", "--grid", str(grid_file),
                    "--directions", str(dirs_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dirmax: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, fragment",
        [("1,2\n3\n", "CSV"), ("1,2\n3,x\n", "CSV"), ("", "no samples")],
        ids=["ragged", "non-number", "empty"],
    )
    def test_malformed_csv_grid_is_validation_failure(
        self, dirs_file, tmp_path, capsys, recwarn, text, fragment
    ):
        src = tmp_path / "g.csv"
        src.write_text(text)
        out = tmp_path / "o.grd"
        assert run(["apply", "--op", "m1", "--grid", str(src), "--spacing", "0.125",
                    "--directions", str(dirs_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dirmax: ") and fragment in err and err.count("\n") == 1
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    @pytest.mark.parametrize(
        "key, value",
        [("poles", ["a"]), ("domain", ["x", 1.0]), ("domain", [0.0])],
        ids=["pole-string", "domain-string", "domain-one-value"],
    )
    def test_malformed_decomposition_is_validation_failure(self, tmp_path, capsys, key, value):
        data = random_complete_decomposition(np.random.default_rng(0), 3).to_json()
        data[key] = value
        src = tmp_path / "d.json"
        src.write_text(json.dumps(data))
        assert run(["overlap", "--decomp", str(src), "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dirmax: ") and err.count("\n") == 1

    def test_forged_rank_intervals_are_validation_failure(self, tmp_path, capsys):
        data = random_complete_decomposition(np.random.default_rng(0), 4).to_json()
        data["rank_intervals"] = data["rank_intervals"][:5] * 31
        src, out = tmp_path / "d.json", tmp_path / "o.json"
        src.write_text(json.dumps(data))
        assert run(["overlap", "--decomp", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dirmax: ") and err.count("\n") == 1
        assert not out.exists()

    def test_foreign_pole_tag_is_validation_failure(self, tmp_path, capsys):
        data = random_complete_decomposition(np.random.default_rng(0), 4).to_json()
        for r in data["rank_intervals"]:
            if r["pole"] is not None:
                r["pole"] = r["lo"] + 1e-9 * (r["hi"] - r["lo"])
        src, out = tmp_path / "d.json", tmp_path / "o.json"
        src.write_text(json.dumps(data))
        assert run(["overlap", "--decomp", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dirmax: ") and "poles" in err and err.count("\n") == 1
        assert not out.exists()

    def test_chain_outside_domain_is_validation_failure(self, tmp_path, capsys):
        src, out = tmp_path / "chain.json", tmp_path / "d.json"
        src.write_text(json.dumps([[0.1, 0.9]]))
        assert run(["decompose", "--mode", "chain", "--input", str(src),
                    "--domain", "0.2,0.3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "dirmax: set must be contained in the domain\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["apply", "--op", "m1", "--radii", "0.25,half", "--directions", "DIRS"],
            ["sweep", "--mode", "N", "--values", "4,many"],
            ["sweep", "--mode", "N", "--values", "4,16.5"],
            ["kernel-table", "--kind", "bump", "--range", "0,one", "--samples", "2"],
            ["kernel-table", "--kind", "bump", "--range", "0,1,2", "--samples", "2"],
            ["decompose", "--mode", "binary", "--input", "DIRS", "--domain", "0,b"],
        ],
        ids=["radii", "values", "values-float", "range", "range-triple", "domain"],
    )
    def test_non_numeric_flag_is_validation_failure(
        self, grid_file, dirs_file, tmp_path, capsys, argv
    ):
        argv = [str(dirs_file) if a == "DIRS" else a for a in argv]
        if argv[0] == "apply":
            argv += ["--grid", str(grid_file), "--out", str(tmp_path / "o.grd")]
        flag = next(a for a in argv if a in ("--radii", "--values", "--range", "--domain"))
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"dirmax: {flag} expects ") and err.count("\n") == 1

    def test_removed_noop_flags_are_usage_errors(self, tmp_path):
        assert run(["--threads", "2", "kernel-table", "--kind", "bump",
                    "--range", "0,1", "--samples", "2"]) == 1
        assert run(["overlap", "--decomp", str(tmp_path / "d.json"), "--exact"]) == 1
        assert run(["overlap", "--decomp", str(tmp_path / "d.json"), "--samples", "200"]) == 1
        # the four band corners decide containment: there is no lattice to size
        assert run(["check-support", "--chain", str(tmp_path / "c.json"), "--theta", "0.4",
                    "--R", "1e4", "--samples", "8"]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["decompose", "--mode", "binary", "--input", "DIRS", "--gap", "1.5"],
             "--gap applies to chain mode only"),
            (["decompose", "--mode", "binary", "--input", "DIRS", "--gap", "-1"],
             "--gap applies to chain mode only"),
            (["decompose", "--mode", "chain", "--input", "SLOPE_CHAIN", "--gap", "1.5"],
             "gap must lie in (0, 1), got 1.5"),
            (["decompose", "--mode", "binary", "--input", "DIRS", "--domain", "5,9"],
             "--domain applies to chain mode only"),
            (["overlap", "--decomp", "DECOMP_GAP_1.5"], "gap must lie in (0, 1), got 1.5"),
            (["overlap", "--decomp", "DECOMP_NOT_NESTED"], "chain is not nested at stage 1"),
            (["kernel-table", "--kind", "fejer", "--r", "0", "--range", "0,1",
              "--samples", "2"], "r must be a positive real, got 0.0"),
            (["kernel-table", "--kind", "bump", "--r", "-1", "--range", "0,1",
              "--samples", "2"], "--r does not apply to --kind bump"),
            (["kernel-table", "--kind", "zeta", "--h", "1", "--range", "0,1",
              "--samples", "2"], "--h does not apply to --kind zeta"),
            (["apply", "--op", "m1", "--grid", "GRID"], "m1 needs --directions"),
            (["apply", "--op", "m2", "--grid", "GRID", "--directions", "DIRS", "--offsets", "3"],
             "offset_steps must be 0, 1 or 2, got 3"),
            (["apply", "--op", "gamma", "--grid", "GRID", "--alpha", "nan", "--r", "1024"],
             "alpha must be finite, got nan"),
            (["apply", "--op", "gamma", "--grid", "GRID", "--alpha", "0.2", "--r", "inf"],
             "r must be a positive real, got inf"),
            (["check-support", "--chain", "CHAIN", "--theta", "0.4", "--R", "0"],
             "R must be a positive real, got 0.0"),
            (["check-support", "--chain", "CHAIN", "--theta", "0.4", "--R", "-5"],
             "R must be a positive real, got -5.0"),
            (["check-support", "--chain", "CHAIN", "--theta", "0.4", "--R", "nan"],
             "R must be a positive real, got nan"),
            (["check-support", "--chain", "CHAIN", "--theta", "0.4", "--R", "inf"],
             "R must be a positive real, got inf"),
            (["sweep", "--mode", "N", "--values", "0", "--ops", "m1", "--family", "disk",
              "--size", "32"], "n must be >= 1, got 0"),
            (["sweep", "--mode", "mu", "--values", "1", "--size", "0"], "size must be >= 3, got 0"),
            (["sweep", "--mode", "mu", "--values", "1", "--size", "-4"],
             "size must be >= 3, got -4"),
            (["sweep", "--mode", "mu", "--values", "1", "--size", "1"], "size must be >= 3, got 1"),
            (["sweep", "--mode", "mu", "--values", "1", "--size", "2"], "size must be >= 3, got 2"),
            (["sweep", "--mode", "N", "--values", "4", "--size", "0"], "size must be >= 2, got 0"),
            (["sweep", "--mode", "N", "--values", "4", "--size", "-4"],
             "size must be >= 2, got -4"),
            (["sweep", "--mode", "N", "--values", "4", "--size", "1"], "size must be >= 2, got 1"),
            # one past the largest key Philox takes
            (["--seed", str(2**64), "sweep", "--mode", "N", "--values", "4", "--ops", "m1",
              "--family", "random", "--size", "16"],
             f"seed must be from {-2**63} to {2**64 - 1}, got {2**64}"),
            *[(["apply", "--op", "m1", "--grid", "GRID", "--directions", f"DIRS_{kind}"],
               "a direction set must hold only finite JSON numbers")
              for kind in ("STRING", "BOOLEAN", "NAN")],
            *[(["decompose", "--mode", "binary", "--input", f"POINTS_{kind}"],
               "binary mode input must hold only finite JSON numbers")
              for kind in ("STRING", "BOOLEAN", "NAN", "HUGE_INT")],
            *[(["decompose", "--mode", "chain", "--input", f"CHAIN_{kind}"],
               "each chain stage must hold only finite JSON numbers")
              for kind in ("STRING", "BOOLEAN")],
            *[(["overlap", "--decomp", f"DECOMP_{key.upper()}_{kind}"],
               f"{key} must hold only finite JSON numbers")
              for key in ("domain", "poles", "gap") for kind in ("STRING", "BOOLEAN")],
            # both interval readers reject rows that are not {lo, hi, ...} objects
            *[(["check-support", "--chain", name, "--theta", "0.4", "--R", "1e4"],
               f"{name}: intervals must be a JSON array of {{lo, hi, pole}} objects")
              for name in ("CHAIN_NUMBERS", "CHAIN_NO_LO", "CHAIN_OBJECT")],
            *[(["overlap", "--decomp", name],
               "rank intervals must be a JSON array of {lo, hi, rank, pole} objects")
              for name in ("DECOMP_ROWS_NUMBERS", "DECOMP_ROWS_NO_RANK")],
            (["overlap", "--decomp", "DECOMP_NO_CHAIN"], "decomposition JSON lacks the key 'chain'"),
        ],
        ids=["binary-gap-above-one", "binary-gap-negative", "chain-gap-above-one",
             "binary-domain", "decomposition-gap", "decomposition-not-nested",
             "kernel-r-zero", "kernel-bump-r", "kernel-zeta-h", "apply-no-directions",
             "apply-offsets-three", "apply-gamma-alpha-nan", "apply-gamma-r-inf",
             "support-R-zero", "support-R-negative", "support-R-nan", "support-R-inf",
             "sweep-n-zero", "sweep-mu-size-zero", "sweep-mu-size-negative",
             "sweep-mu-size-one", "sweep-mu-size-two", "sweep-n-size-zero",
             "sweep-n-size-negative", "sweep-n-size-one", "sweep-seed-above-range",
             "directions-string", "directions-boolean", "directions-nan",
             "binary-string", "binary-boolean", "binary-nan", "binary-huge-int",
             "chain-string", "chain-boolean",
             "decomposition-domain-string", "decomposition-domain-boolean",
             "decomposition-poles-string", "decomposition-poles-boolean",
             "decomposition-gap-string", "decomposition-gap-boolean",
             "support-rows-numbers", "support-row-without-lo", "support-object",
             "decomposition-rows-numbers", "decomposition-row-without-rank",
             "decomposition-without-chain"],
    )
    def test_malformed_input_corpus(
        self, grid_file, dirs_file, tmp_path, capsys, recwarn, argv, message
    ):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(
            [{"lo": 0.0, "hi": 1.0, "pole": 0.5}, {"lo": 0.36, "hi": 0.44}]
        ))
        decomp = random_complete_decomposition(np.random.default_rng(0), 2).to_json()
        decomp["gap"] = 1.5
        bad_decomp = tmp_path / "d.json"
        bad_decomp.write_text(json.dumps(decomp))
        slope_chain = tmp_path / "slope-chain.json"
        slope_chain.write_text(json.dumps([[0.25, 0.75]]))
        # the chain {0.5} then {0.3}, with the rank intervals of each set
        not_nested = tmp_path / "not-nested.json"
        not_nested.write_text(json.dumps({"gap": 0.5, "chain": [[0.5], [0.3]], "rank_intervals": [
            {"lo": 0.0, "hi": 0.5, "rank": 1}, {"lo": 0.5, "hi": 1.0, "rank": 1},
            {"lo": 0.0, "hi": 0.3, "rank": 2}, {"lo": 0.3, "hi": 1.0, "rank": 2},
        ], "domain": [0.0, 1.0]}))
        files = {"DIRS": dirs_file, "GRID": grid_file, "CHAIN": chain,
                 "SLOPE_CHAIN": slope_chain, "DECOMP_GAP_1.5": bad_decomp,
                 "DECOMP_NOT_NESTED": not_nested}
        # one JSON number rule for every input file: strings, booleans and NaN fail
        good = random_complete_decomposition(np.random.default_rng(0), 2).to_json()
        texts = {
            "DIRS_STRING": '["0.1", 0.5]', "DIRS_BOOLEAN": "[0.1, true]",
            "DIRS_NAN": "[0.1, NaN]", "POINTS_STRING": '["0.1", 0.5]',
            "POINTS_BOOLEAN": "[0.1, true, 0.5]", "POINTS_NAN": "[NaN, 0.5]",
            "POINTS_HUGE_INT": f"[0.1, 1{'0' * 400}]",
            "CHAIN_STRING": '[["0.25", 0.75]]', "CHAIN_BOOLEAN": "[[0.25, 0.75], [0.25, true]]",
            "DECOMP_DOMAIN_STRING": json.dumps({**good, "domain": ["0", 1]}),
            "DECOMP_DOMAIN_BOOLEAN": json.dumps({**good, "domain": [False, 1]}),
            "DECOMP_POLES_STRING": json.dumps({**good, "poles": [repr(p) for p in good["poles"]]}),
            "DECOMP_POLES_BOOLEAN": json.dumps({**good, "poles": [*good["poles"], True]}),
            "DECOMP_GAP_STRING": json.dumps({**good, "gap": "0.5"}),
            "DECOMP_GAP_BOOLEAN": json.dumps({**good, "gap": True}),
            "CHAIN_NUMBERS": "[1]", "CHAIN_NO_LO": '[{"hi": 1.0}]',
            "CHAIN_OBJECT": '{"lo": 0.0, "hi": 1.0}',
            "DECOMP_ROWS_NUMBERS": json.dumps({**good, "rank_intervals": [1]}),
            "DECOMP_ROWS_NO_RANK": json.dumps({**good, "rank_intervals": [{"lo": 0.0, "hi": 1.0}]}),
            "DECOMP_NO_CHAIN": json.dumps({k: v for k, v in good.items() if k != "chain"}),
        }
        for name, text in texts.items():
            files[name] = tmp_path / f"{name.lower()}.json"
            files[name].write_text(text)
        out = tmp_path / "out"
        argv = [str(files.get(a, a)) for a in argv] + ["--out", str(out)]
        head, sep, rest = message.partition(": ")
        if head in files:  # a message that names its file starts with its path
            message = f"{files[head]}{sep}{rest}"
        assert run(argv) == 1
        assert capsys.readouterr().err == f"dirmax: {message}\n"
        assert not out.exists()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-dirmax")]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestOneProcess:
    # usage errors, validation and i/o failures, stdout and --out outputs, the
    # --range rewrite and --help; DIR is the directory each side writes in
    CORPUS = [
        ["decompose", "--mode", "binary", "--input", "DIRS", "--out", "DIR/b.json"],
        ["overlap", "--decomp", "DIR/b.json", "--skip-poleless"],
        ["overlap", "--decomp", "DIR/b.json"],
        ["--bogus"],
        [],
        ["frobnicate"],
        ["decompose", "--mode", "binary", "--input", "DIRS", "--gap", "0.3"],
        ["overlap", "--decomp", "DIR/missing.json", "--out", "DIR/o.json"],
        ["decompose", "--mode", "chain", "--input", "DIR/b.json", "--out", "DIR/c.json"],
        ["overlap", "--decomp", "RANDOM", "--out", "DIR/r.json"],
        ["kernel-table", "--kind", "vp", "--r", "1", "--range", "-3,3", "--samples", "7"],
        ["overlap", "--help"],
    ]

    def test_back_to_back_runs_match_separate_processes(
        self, dirs_file, tmp_path, capsys, monkeypatch
    ):
        random = tmp_path / "random.json"
        random_complete_decomposition(np.random.default_rng(4), 5).save(random)
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
        src = str(Path(dirmax.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

        def argv_in(d):
            names = {"DIRS": str(dirs_file), "RANDOM": str(random)}
            return [[names.get(a, a.replace("DIR", str(d))) for a in argv] for argv in self.CORPUS]

        def results(d, outputs):
            # (exit code, stdout, stderr) per command with paths made neutral,
            # then every file the commands wrote
            text = [tuple(v.replace(str(d), "DIR") if isinstance(v, str) else v for v in r)
                    for r in outputs]
            return text, {p.name: p.read_bytes() for p in sorted(d.iterdir())}

        apart = tmp_path / "apart"
        apart.mkdir()
        separate = []
        for argv in argv_in(apart):
            proc = subprocess.run([sys.executable, "-m", "dirmax.cli", *argv], env=env,
                                  capture_output=True, text=True)
            separate.append((proc.returncode, proc.stdout, proc.stderr))

        together = tmp_path / "together"
        together.mkdir()
        capsys.readouterr()
        one = []
        for argv in argv_in(together):
            rc = run(argv)
            one.append((rc, *capsys.readouterr()))
        assert _build_parser() is _build_parser()
        assert [r[0] for r in one] == [0, 0, 1, 1, 1, 1, 1, 2, 0, 0, 0, 0]
        assert results(together, one) == results(apart, separate)


class TestDecompose:
    def test_binary_seven_slopes(self, dirs_file, tmp_path):
        out = tmp_path / "d.json"
        assert run(["decompose", "--mode", "binary", "--input", str(dirs_file),
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["chain"]) <= int(math.log2(7)) + 2
        d = LacunaryDecomposition.from_json(data)
        assert len(d.final_set) == 7

    def test_chain_mode(self, tmp_path):
        src = tmp_path / "chain.json"
        src.write_text(json.dumps({"chain": [[0, 1], [0, 0.5, 1]]}))
        out = tmp_path / "d.json"
        assert run(["decompose", "--mode", "chain", "--gap", "0.5",
                    "--input", str(src), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["gap"] == 0.5

    def test_output_matches_library_save_bytes(self, dirs_file, tmp_path):
        out, ref = tmp_path / "d.json", tmp_path / "ref.json"
        assert run(["decompose", "--mode", "binary", "--input", str(dirs_file),
                    "--out", str(out)]) == 0
        binary_decomposition(json.loads(dirs_file.read_text())).save(ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_byte_identical_reruns(self, dirs_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["decompose", "--mode", "binary", "--input", str(dirs_file), "--out", str(a)])
        run(["decompose", "--mode", "binary", "--input", str(dirs_file), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_no_temp_leftovers(self, dirs_file, tmp_path):
        out = tmp_path / "d.json"
        run(["decompose", "--mode", "binary", "--input", str(dirs_file), "--out", str(out)])
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-dirmax")]
        assert leftovers == []


@pytest.mark.parametrize("command", ["decompose", "kernel-table", "apply"])
def test_out_file_mode_follows_the_umask(command, grid_file, dirs_file, tmp_path):
    # as open(path, "w") creates a file: 0o666 less the umask, not mkstemp's 0o600
    argv = {
        "decompose": ["decompose", "--mode", "binary", "--input", str(dirs_file)],
        "kernel-table": ["kernel-table", "--kind", "vp", "--range", "0,1", "--samples", "3"],
        "apply": ["apply", "--op", "m1", "--grid", str(grid_file),
                  "--directions", str(dirs_file)],
    }[command]
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert run([*argv, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o644


def _decompose_both_ways(argv, tmp_path, capsys):
    """The bytes ``dirmax decompose`` writes to --out and to stdout."""
    out = tmp_path / "out.json"
    assert run([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    return out.read_bytes(), capsys.readouterr().out.encode()


class TestDecomposeWriter:
    # the library's writer tests sweep the sizes; these check that the CLI uses it
    @pytest.mark.parametrize("n", [1, 2, 70, 4096])
    def test_binary_writes_reference_bytes(self, n, tmp_path, capsys):
        points = np.random.default_rng(n).uniform(0, 1, n).tolist()
        src = tmp_path / "points.json"
        src.write_text(json.dumps(points))
        argv = ["decompose", "--mode", "binary", "--input", str(src)]
        want = reference_text(binary_decomposition(points)).encode()
        assert _decompose_both_ways(argv, tmp_path, capsys) == (want, want)

    @pytest.mark.parametrize("name", COMPLETION_CORPUS)
    def test_chain_writes_reference_bytes(self, name, tmp_path, capsys):
        d = COMPLETION_CORPUS[name]()
        src = tmp_path / "decomp.json"
        d.save(src)  # chain mode reads the chain of a decomposition file
        argv = ["decompose", "--mode", "chain", "--input", str(src), "--gap", repr(d.gap),
                "--domain", ",".join(map(repr, d.domain))]
        want = reference_text(build_decomposition(d.chain, d.gap, d.domain)).encode()
        assert _decompose_both_ways(argv, tmp_path, capsys) == (want, want)

    def test_streams_without_holding_the_text(self, tmp_path):
        # save holds to_json's dict but never the whole text, which json.dumps
        # builds (10.5 MB for the 1.1 MB file of 4,096 points)
        points = np.random.default_rng(0).uniform(0, 1, 4096).tolist()
        src, out = tmp_path / "points.json", tmp_path / "out.json"
        src.write_text(json.dumps(points))
        argv = ["decompose", "--mode", "binary", "--input", str(src), "--out", str(out)]
        warm = tmp_path / "warm.json"  # a first run's lazy imports are not the command's
        warm.write_text("[0.1, 0.2, 0.3]")
        assert run(["decompose", "--mode", "binary", "--input", str(warm), "--out", str(out)]) == 0
        d = binary_decomposition(points)
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            json.dumps(d.to_json(), sort_keys=True, indent=1)
            text_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < text_peak


class TestKernelTable:
    def test_vp_hat_contains_half_point(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["kernel-table", "--kind", "vp-hat", "--r", "1",
                    "--range", "-3,3", "--samples", "7", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "x,value"
        table = {float(a): float(b) for a, b in (r.split(",") for r in rows[1:])}
        assert table[1.5] == 0.5
        assert table[0.0] == 1.0

    @pytest.mark.parametrize("kind", ["fejer", "vp", "vp-hat", "bump", "zeta"])
    @pytest.mark.parametrize("h", ["0", "-1"])
    def test_nonpositive_h_is_validation_failure(self, capsys, kind, h):
        # bump's evaluator rejects its scale; the other kinds never read --h
        assert run(["kernel-table", "--kind", kind, "--h", h, "--range", "0,1",
                    "--samples", "2"]) == 1
        want = (f"h must be a positive real, got {float(h)}" if kind == "bump"
                else f"--h does not apply to --kind {kind}")
        assert capsys.readouterr().err == f"dirmax: {want}\n"

    def test_all_kinds_run(self, tmp_path):
        for kind in ("fejer", "vp", "vp-hat", "bump", "zeta"):
            scale = "--h" if kind == "bump" else "--r"
            out = tmp_path / f"{kind}.csv"
            assert run(["kernel-table", "--kind", kind, scale, "2",
                        "--range", "0,4", "--samples", "5", "--out", str(out)]) == 0
            assert len(out.read_text().splitlines()) == 6


class TestApply:
    def test_m1_roundtrip(self, grid_file, dirs_file, tmp_path):
        out = tmp_path / "out.grd"
        assert run(["apply", "--op", "m1", "--grid", str(grid_file),
                    "--directions", str(dirs_file), "--out", str(out)]) == 0
        g = Grid2D.load(out)
        assert g.values.shape == (48, 48)
        assert np.all(g.values >= 0)

    def test_output_matches_library_bytes(self, grid_file, dirs_file, tmp_path):
        out = tmp_path / "out.grd"
        assert run(["apply", "--op", "m1", "--grid", str(grid_file),
                    "--directions", str(dirs_file), "--out", str(out)]) == 0
        g = Grid2D.load(grid_file)
        cfg = OperatorConfig(tuple(0.25 * 2.0**k for k in range(4)), samples_per_unit=8)
        omega = DirectionSet.from_json(json.loads(dirs_file.read_text()))
        ref = tmp_path / "ref.grd"
        m1(g, omega, cfg).save(ref)
        assert out.read_bytes() == ref.read_bytes()
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp")] == []

    @pytest.mark.parametrize("spu", ["0", "-3"])
    def test_nonpositive_spu_is_validation_failure(
        self, grid_file, dirs_file, tmp_path, capsys, spu
    ):
        out = tmp_path / "out.grd"
        assert run(["apply", "--op", "m1", "--grid", str(grid_file),
                    "--directions", str(dirs_file), "--spu", spu, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"dirmax: samples_per_unit must be >= 1, got {spu}\n"
        assert not out.exists()

    def test_gamma(self, grid_file, tmp_path):
        out = tmp_path / "out.grd"
        assert run(["apply", "--op", "gamma", "--grid", str(grid_file),
                    "--alpha", "0.2", "--r", "4096", "--h", "0.05",
                    "--out", str(out)]) == 0
        assert Grid2D.load(out).values.shape == (48, 48)

    def test_gamma_truncation_is_validation_failure(self, grid_file, tmp_path):
        code = run(["apply", "--op", "gamma", "--grid", str(grid_file),
                    "--alpha", "0.2", "--r", "1", "--h", "1",
                    "--out", str(tmp_path / "x.grd")])
        assert code == 1

    def test_csv_grid_needs_spacing(self, tmp_path, dirs_file):
        src = tmp_path / "g.csv"
        np.savetxt(src, np.ones((16, 16)), delimiter=",")
        code = run(["apply", "--op", "m0", "--grid", str(src),
                    "--directions", str(dirs_file), "--out", str(tmp_path / "o.grd")])
        assert code == 1  # missing --spacing
        assert run(["apply", "--op", "m0", "--grid", str(src), "--spacing", "0.125",
                    "--directions", str(dirs_file),
                    "--out", str(tmp_path / "o.grd")]) == 0

    def test_m2_on_all_zero_csv_writes_zero_grid(self, dirs_file, tmp_path):
        src, out = tmp_path / "z.csv", tmp_path / "z.grd"
        np.savetxt(src, np.zeros((12, 20)), delimiter=",")
        assert run(["apply", "--op", "m2", "--grid", str(src), "--spacing", "0.125",
                    "--directions", str(dirs_file), "--offsets", "2", "--out", str(out)]) == 0
        g = Grid2D.load(out)
        assert g.values.shape == (12, 20) and g.values.tobytes() == bytes(8 * 12 * 20)


class TestOverlapAndSupport:
    def test_overlap_exact(self, dirs_file, tmp_path):
        d = tmp_path / "d.json"
        run(["decompose", "--mode", "binary", "--input", str(dirs_file), "--out", str(d)])
        out = tmp_path / "ov.json"
        assert run(["overlap", "--decomp", str(d), "--skip-poleless",
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["method"] == "exact"
        assert data["n_low"] >= 0

    def test_check_support(self, tmp_path):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(
            [{"lo": 0.0, "hi": 1.0, "pole": 0.5}, {"lo": 0.36, "hi": 0.44}]
        ))
        out = tmp_path / "rep.json"
        assert run(["check-support", "--chain", str(chain), "--theta", "0.4",
                    "--R", "10000", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["all_contained"] is True
        assert data["m"] == 2
        for check in data["checks"]:
            assert sorted(check) == ["band", "contained", "corner_margin", "k", "strip_center"]

    def test_check_support_integer_and_float_chains_give_same_bytes(self, tmp_path):
        reports = []
        for spelling in (
            [{"lo": 0, "hi": 16, "pole": 8}, {"lo": 10, "hi": 12}],
            [{"lo": 0.0, "hi": 16.0, "pole": 8.0}, {"lo": 10.0, "hi": 12.0}],
        ):
            chain = tmp_path / "chain.json"
            chain.write_text(json.dumps(spelling))
            out = tmp_path / f"rep{len(reports)}.json"
            assert run(["check-support", "--chain", str(chain), "--theta", "11",
                        "--R", "10000", "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert b'"strip_center": 8.0' in reports[0]

    def test_check_support_bad_chain(self, tmp_path):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(
            [{"lo": 0.0, "hi": 1.0, "pole": 0.5}, {"lo": 0.3, "hi": 0.45}]
        ))
        assert run(["check-support", "--chain", str(chain), "--theta", "0.4",
                    "--R", "100"]) == 1

    @pytest.mark.parametrize(
        "row",
        [{"lo": "0", "hi": "1"}, {"lo": 0.0, "hi": True}, {"lo": None, "hi": 1.0},
         {"lo": 0.0, "hi": 1.0, "pole": "0.5"}],
        ids=["lo-string", "hi-boolean", "lo-null", "pole-string"],
    )
    def test_check_support_non_numeric_interval_is_validation_failure(
        self, tmp_path, capsys, row
    ):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps([row]))
        out = tmp_path / "rep.json"
        assert run(["check-support", "--chain", str(chain), "--theta", "0.4",
                    "--R", "100", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dirmax: ") and "numbers" in err and err.count("\n") == 1
        assert not out.exists()


class TestSweep:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--mode", "N", "--values", "4,8", "--ops", "m1",
                    "--family", "disk", "--size", "64", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("label,operator,max_ratio")
        assert len(rows) == 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reruns_are_byte_identical(self, tmp_path, fmt):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        for p in (a, b):
            assert run(["sweep", "--mode", "N", "--values", "4", "--ops", "m1",
                        "--family", "random", "--size", "64", "--format", fmt,
                        "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"runtime_ms" not in a.read_bytes()


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as an oracle
    src = str(Path(dirmax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, dirmax, dirmax.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
