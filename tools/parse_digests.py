"""Print one line per game text of a fixed protocol of parser inputs, to spot parser changes.

Each line is ``label ok sha256`` for a text that parses, with the sha256 of
``serialize_game`` of the parsed game, or ``label <exception type> <line>
<column> <message>`` for a text that raises (line and column are None for
an error that carries no position).  The protocol is 6790 inputs: the
built-in texts of fig1 at seeds 0-4, kuhn3 and random-tree 0-63, each as
written and in 72 seeded mutations, then each in 24 seeded statement
mutations.  A mutation applies one to three of:

- ``cut``: truncate the text at a random offset;
- ``del``: delete one token;
- ``swap``: swap two tokens;
- ``ins``: insert a keyword, a number, a punctuation mark or a token of the
  text, with or without spaces around it;
- ``eol``: turn every line end, or one, into another line end
  (CR, CRLF, FF, VT, FS, NEL or LINE SEPARATOR);
- ``hash``: glue a ``#`` comment to the end of a token;
- ``shuffle``: shuffle the lines;
- ``dup``: duplicate a line.

A statement mutation aims at what a reader of whole statements can get
wrong, and applies one or two of:

- ``comment``: put a ``#`` comment inside a statement, with or without a
  line end after it;
- ``glue``: take the spaces out around one ``->``, or around every one;
- ``split``: turn a space inside a statement into a CR or FF line end;
- ``semi``: put a ``;`` inside a pair of braces, with or without spaces.

Run it from the repository root on two trees and diff the outputs::

    PYTHONPATH=src python3 tools/parse_digests.py > after.txt
"""

from __future__ import annotations

import hashlib
import random
import re
import sys

from efce import parse_game, serialize_game
from efce.game import _fig1_text, _kuhn3_text, _random_tree_text

MUTATIONS_PER_TEXT = 72
STATEMENT_MUTATIONS_PER_TEXT = 24
_TOKEN = re.compile(r"->|[{}=;]|[^\s{}=;]+")
_WORDS = ("{", "}", ";", "=", "->", "game", "players", "root", "chance", "decision", "leaf",
          "player", "infoset", "0", "1", "2", "3", "-1", "0.5", "1e999", "nan", "inf", "x")
_LINE_ENDS = ("\r", "\r\n", "\f", "\v", "\x1c", "\x85", "\u2028")


def texts():
    """(label, text) of every built-in text of the protocol."""
    out = [(f"fig1-s{s}", _fig1_text(s)) for s in range(5)]
    out.append(("kuhn3", _kuhn3_text()))
    out += [(f"random-tree-s{s}", _random_tree_text(s)) for s in range(64)]
    return out


def mutate(text, rng):
    """(names, text) of one to three random mutations applied in turn."""
    names = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(("cut", "del", "swap", "ins", "eol", "hash", "shuffle", "dup"))
        names.append(name)
        spans = [m.span() for m in _TOKEN.finditer(text)] or [(0, 0)]
        a, b = rng.choice(spans)
        if name == "cut":
            text = text[:rng.randrange(len(text) + 1)]
        elif name == "del":
            text = text[:a] + text[b:]
        elif name == "swap":
            c, d = rng.choice(spans)
            if c < a:
                a, b, c, d = c, d, a, b
            if b <= c:
                text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
        elif name == "ins":
            word = rng.choice(_WORDS + (text[a:b],))
            pad = rng.choice(("", " "))
            at = rng.choice((a, b))
            text = text[:at] + pad + word + pad + text[at:]
        elif name == "eol":
            end = rng.choice(_LINE_ENDS)
            text = text.replace("\n", end) if rng.random() < 0.5 else text.replace("\n", end, 1)
        elif name == "hash":
            text = text[:b] + "#c" + text[b:]
        else:
            lines = text.split("\n")
            if name == "shuffle":
                rng.shuffle(lines)
            else:
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            text = "\n".join(lines)
    return "+".join(names), text


def mutate_statement(text, rng):
    """(names, text) of one or two random statement mutations applied in turn."""
    names = []
    for _ in range(rng.randint(1, 2)):
        name = rng.choice(("comment", "glue", "split", "semi"))
        names.append(name)
        if name == "glue":
            text = re.sub(r"\s*->\s*", "->", text, count=rng.choice((0, 1)))
            continue
        if name == "semi":
            # spaces inside braces
            spots = [a for m in re.finditer(r"\{[^{}]*\}", text)
                     for a in range(m.start() + 1, m.end()) if text[a] == " "]
        else:
            # spaces between two words of a statement
            spots = [m.start() for m in re.finditer(r"(?<=\S) (?=\S)", text)]
        if not spots:
            continue
        at = rng.choice(spots)
        if name == "comment":
            text = text[:at] + " #c" + rng.choice(("", "\n")) + text[at:]
        elif name == "split":
            text = text[:at] + rng.choice(("\r", "\f")) + text[at + 1:]
        else:
            pad = rng.choice(("", " "))
            text = text[:at] + pad + ";" + pad + text[at:]
    return "+".join(names), text


def outcome(text):
    """``ok sha256`` of the serialized game, or the exception's type, line, column and message."""
    try:
        game = parse_game(text)
    except Exception as exc:  # the exception is the result
        line, col = getattr(exc, "line", None), getattr(exc, "col", None)
        return f"{type(exc).__name__} {line} {col} {str(exc)!r}"
    return "ok " + hashlib.sha256(serialize_game(game).encode()).hexdigest()


def protocol():
    """(label, input name, text) per input, in output order."""
    for label, text in texts():
        yield label, "as-written", text
        rng = random.Random(label)
        for k in range(MUTATIONS_PER_TEXT):
            names, mutated = mutate(text, rng)
            yield label, f"m{k}:{names}", mutated
    for label, text in texts():
        rng = random.Random(f"{label}/statements")
        for k in range(STATEMENT_MUTATIONS_PER_TEXT):
            names, mutated = mutate_statement(text, rng)
            yield label, f"s{k}:{names}", mutated


def main():
    for label, name, text in protocol():
        print(label, name, outcome(text))
    return 0


if __name__ == "__main__":
    sys.exit(main())
