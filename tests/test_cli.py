import pytest

import efce.cli as cli
from efce.deviations import NumericalError


def test_validate_builtin(capsys):
    code = cli.main(["validate", "--builtin", "fig1", "--builtin-seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "game: fig1-s0" in out
    assert "players: 2" in out
    assert "nodes: 15" in out
    assert "terminals: 8" in out
    assert "perfect recall: ok" in out
    assert "player 1: infosets=4 sequences=9 (nonempty 8)" in out
    assert "player 2: infosets=2 sequences=5 (nonempty 4)" in out


def test_validate_file(tmp_path, capsys):
    p = tmp_path / "tiny.game"
    p.write_text("game tiny\nplayers 1\nroot a\n"
                 "decision a player 1 infoset A { x -> z1 ; y -> z2 }\n"
                 "leaf z1 {0}; leaf z2 {1}\n")
    code = cli.main(["validate", str(p)])
    out = capsys.readouterr().out
    assert code == 0
    assert "game: tiny" in out
    assert "player 1: infosets=1 sequences=3 (nonempty 2)" in out


def test_validate_rejects_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.game"
    p.write_text("players 1\nroot a\nleaf a {0}\nleaf b {0}\n")
    code = cli.main(["validate", str(p)])
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err


def test_non_finite_payoff_file_exits_3(tmp_path, capsys):
    p = tmp_path / "nan.game"
    p.write_text("players 1; root a\n"
                 "decision a player 1 infoset A { x -> z1 ; y -> z2 }\n"
                 "leaf z1 {0}; leaf z2 {nan}\n")
    assert cli.main(["validate", str(p)]) == 3
    assert "line 3" in capsys.readouterr().err
    out = tmp_path / "res"
    code = cli.main(["run", "--game", str(p), "--iterations", "5", "--out", str(out)])
    assert code == 3
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_validate_missing_file(capsys):
    code = cli.main(["validate", "/no/such/file.game"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_unknown_builtin(capsys):
    code = cli.main(["validate", "--builtin", "nope"])
    assert code == 3


def test_usage_errors(capsys):
    assert cli.main([]) == 2
    assert cli.main(["run", "--builtin", "fig1"]) == 2  # missing --iterations
    assert cli.main(["run", "--iterations", "5"]) == 2  # no game given
    assert cli.main(["validate"]) == 2
    assert cli.main(["run", "--builtin", "fig1", "--game", "x", "--iterations",
                     "5"]) == 2
    assert cli.main(["run", "--builtin", "fig1", "--builtin-seed", "0",
                     "--iterations", "0"]) == 2
    assert cli.main(["run", "--builtin", "fig1", "--builtin-seed", "0",
                     "--iterations", "5", "--delta", "2"]) == 2
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_fp_tol_usage_errors(capsys):
    for bad in ("-1", "0", "nan", "inf"):
        assert cli.main(["run", "--builtin", "fig1", "--builtin-seed", "0",
                         "--iterations", "5", "--fp-tol", bad]) == 2
    assert "--fp-tol" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "validate" in capsys.readouterr().out


def test_run_writes_log_and_summary(tmp_path, capsys):
    code = cli.main(["run", "--builtin", "fig1", "--builtin-seed", "1",
                     "--iterations", "30", "--seed", "4", "--gap-every", "10",
                     "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "final efce gap:" in out
    csv = (tmp_path / "log.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == "t,player,phi_regret,phi_regret_bound,efce_gap,gap_bound"
    assert len(lines) == 1 + 30 * 2
    summary = (tmp_path / "summary.txt").read_text()
    assert "game: fig1-s1" in summary
    assert "iterations: 30" in summary


def test_run_game_file(tmp_path, capsys):
    p = tmp_path / "g.game"
    p.write_text("players 1; root a\n"
                 "decision a player 1 infoset A { x -> z1 ; y -> z2 }\n"
                 "leaf z1 {0}; leaf z2 {1}\n")
    code = cli.main(["run", "--game", str(p), "--iterations", "20",
                     "--out", str(tmp_path / "res")])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "res" / "log.csv").exists()


def test_run_reruns_are_byte_identical(tmp_path, capsys):
    args = ["run", "--builtin", "fig1", "--builtin-seed", "0",
            "--iterations", "50", "--seed", "11", "--gap-every", "25"]
    cli.main(args + ["--out", str(tmp_path / "a")])
    cli.main(args + ["--out", str(tmp_path / "b")])
    cli.main(args + ["--out", str(tmp_path / "c"), "--threads", "2"])
    capsys.readouterr()
    csv_a = (tmp_path / "a" / "log.csv").read_bytes()
    assert csv_a == (tmp_path / "b" / "log.csv").read_bytes()
    assert csv_a == (tmp_path / "c" / "log.csv").read_bytes()
    s_a = (tmp_path / "a" / "summary.txt").read_bytes()
    assert s_a == (tmp_path / "b" / "summary.txt").read_bytes()
    assert s_a == (tmp_path / "c" / "summary.txt").read_bytes()


def test_numerical_error_maps_to_exit_4(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise NumericalError("stationary distribution did not converge")

    monkeypatch.setattr(cli, "run", explode)
    code = cli.main(["run", "--builtin", "fig1", "--builtin-seed", "0",
                     "--iterations", "5"])
    err = capsys.readouterr().err
    assert code == 4
    assert "stationary" in err


def test_entry_uses_sys_exit(monkeypatch):
    monkeypatch.setattr("sys.argv", ["efce", "validate", "--builtin", "kuhn3"])
    with pytest.raises(SystemExit) as e:
        cli.entry()
    assert e.value.code == 0


def test_cli_seed_changes_output(tmp_path, capsys):
    base = ["run", "--builtin", "kuhn3", "--iterations", "40",
            "--gap-every", "20"]
    cli.main(base + ["--seed", "0", "--out", str(tmp_path / "s0")])
    cli.main(base + ["--seed", "1", "--out", str(tmp_path / "s1")])
    capsys.readouterr()
    a = (tmp_path / "s0" / "log.csv").read_text()
    b = (tmp_path / "s1" / "log.csv").read_text()
    assert a != b
    assert a.splitlines()[0] == b.splitlines()[0]
