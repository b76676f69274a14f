"""Reach ratchet: the package's unreached surface may only shrink.

``tools/reach.py`` lists every top-level package definition that no
entry point (CLI, driver gate, bench, perfbench, tools, ``@register``
stages) reaches. The bounds below are what the scan reported when they
were last lowered; an operator that only tests call cannot come back
without an edit to them. Lower them when a change deletes more."""

from tools import reach

MAX_UNREACHED_DEFS = 158
MAX_UNREACHED_LINES = 6099


def test_unreached_surface_does_not_grow():
    dead, total = reach.scan()
    lines = sum(d[3] for d in dead)
    assert total > 0
    assert len(dead) <= MAX_UNREACHED_DEFS, [d[2] for d in dead]
    assert lines <= MAX_UNREACHED_LINES, (lines, MAX_UNREACHED_LINES)
