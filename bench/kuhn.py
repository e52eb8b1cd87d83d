"""N-card Kuhn poker in the efce game text format.

Two players each receive one of N distinct cards, player 1 may check or
bet, and the usual Kuhn betting round follows with an ante of 1 and a bet
of 1.  At N = 3 the text is byte for byte the package's built-in ``kuhn3``
game, so seeds and logs stay comparable; larger N grows every player's
sequence count as 4N + 1.
"""

_KUHN3_CARDS = ("J", "Q", "K")


def kuhn_cards(n):
    """Card labels, lowest first: J, Q, K at N = 3, else fixed-width ranks."""
    if n < 2:
        raise ValueError("Kuhn poker needs at least two cards")
    if n == 3:
        return _KUHN3_CARDS
    width = len(str(n - 1))
    # Fixed width keeps the concatenated deal labels (d<c1><c2>) unique.
    return tuple(f"r{k:0{width}d}" for k in range(n))


def kuhn_text(n):
    """Game text of N-card Kuhn poker."""
    cards = kuhn_cards(n)
    deals = [(a, b) for a in cards for b in cards if a != b]
    p = repr(1.0 / len(deals))
    entries = " ; ".join(f"{a}{b}={p} -> d{a}{b}" for a, b in deals)
    lines = [f"game kuhn{n}", "players 2", "root deal", f"chance deal {{ {entries} }}"]
    for c1, c2 in deals:
        d = f"d{c1}{c2}"
        win = 1 if cards.index(c1) > cards.index(c2) else -1
        lines += [
            f"decision {d} player 1 infoset {c1} {{ check -> {d}c ; bet -> {d}b }}",
            f"decision {d}c player 2 infoset {c2}c {{ check -> {d}cc ; bet -> {d}cb }}",
            f"decision {d}b player 2 infoset {c2}b {{ call -> {d}bc ; fold -> {d}bf }}",
            f"decision {d}cb player 1 infoset {c1}cb {{ call -> {d}cbc ; fold -> {d}cbf }}",
            f"leaf {d}cc {{ {win} {-win} }}",
            f"leaf {d}cbc {{ {2 * win} {-2 * win} }}",
            f"leaf {d}cbf {{ -1 1 }}",
            f"leaf {d}bc {{ {2 * win} {-2 * win} }}",
            f"leaf {d}bf {{ 1 -1 }}",
        ]
    return "\n".join(lines) + "\n"
