"""Tests of the benchmark's own input generators and tracer."""

import pytest

from efce.game import _kuhn3_text, parse_game
from kuhn import kuhn_text
from tracer import HOOK_NAMES, Tracer


def test_kuhn3_text_is_the_builtin_byte_for_byte():
    assert kuhn_text(3) == _kuhn3_text()


@pytest.mark.parametrize("n", [2, 4, 11, 24])
def test_kuhn_n_parses_with_4n_plus_1_sequences(n):
    game = parse_game(kuhn_text(n))
    assert game.name == f"kuhn{n}"
    assert [game.num_sequences(i) for i in range(2)] == [4 * n + 1] * 2


def test_tracer_reports_missing_hooks_as_absent(monkeypatch):
    import efce.game
    import efce.regret

    monkeypatch.delattr(efce.regret, "CfrMinimizer")
    original = efce.game.parse_game
    tracer = Tracer()
    tracer.install()
    try:
        game = efce.game.parse_game(kuhn_text(2))
    finally:
        tracer.uninstall()
    assert efce.game.parse_game is original
    assert any(a.startswith("regret.cfr_next ") for a in tracer.absent)
    totals = tracer.totals()
    assert set(totals) == set(HOOK_NAMES)
    assert totals["game.parse_game"][0] == 1
    assert totals["regret.cfr_next"] == (0, 0.0)
    assert game.n_players == 2
