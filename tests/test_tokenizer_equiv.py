"""The oracle's tokenizer regexes against frozen backtracking references.

`oracle._TOKEN_RE` and `oracle._LI_RUN_SCAN_RE` scan attribute runs
possessively and anchor the token scan on '<'; the whitespace fast
paths skip their regex when `str.isprintable()` already proves it
cannot match. Each is an optimization that must not change a single
match, so the tests below pin them to the plain backtracking patterns
they replaced (frozen here verbatim as the reference), to the Unicode
table, and to a page size the backtracking form could not handle.
"""

from __future__ import annotations

import re
import sys
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from textextract_ray import oracle
from textextract_ray.oracle import extract_document

# --- frozen reference patterns (the backtracking attribute scan) -------------

_REF_LI_ITEM = (
    r"<li(?![a-zA-Z0-9:-])(?:\"[^\"]*\"|'[^']*'|[^>\"'])*>"
    r"\s*"
    r"<a(?![a-zA-Z0-9:-])(?:\"[^\"]*\"|'[^']*'|[^>\"'])*>"
    r"[^<]*</a></li>"
)
REF_TOKEN_RE = re.compile(
    r"(" + _REF_LI_ITEM + r"(?:\s*" + _REF_LI_ITEM + r")*)"
    r"|</a></li><li><a(?![a-zA-Z0-9:-])"
    r"((?:\"[^\"]*\"|'[^']*'|[^>\"'])*)(/?)>"
    r"|<\s*(/?)\s*([a-zA-Z][a-zA-Z0-9:-]*)((?:\"[^\"]*\"|'[^']*'|[^>\"'])*)(/?)\s*>"
    r"|<!--.*?(?:-->|$)"
    r"|<!\[CDATA\[.*?(?:\]\]>|$)"
    r"|<![^>]*>"
    r"|<\?[^>]*>"
    r"|<",
    re.DOTALL,
)
REF_LI_RUN_SCAN_RE = re.compile(
    r"<li(?![a-zA-Z0-9:-])(?:\"[^\"]*\"|'[^']*'|[^>\"'])*>"
    r"(\s*)"
    r"<a(?![a-zA-Z0-9:-])(?:\"[^\"]*\"|'[^']*'|[^>\"'])*>"
    r"([^<]*)</a></li>"
    r"|\s+",
    re.DOTALL,
)

# --- HTML-ish inputs ---------------------------------------------------------

_FRAGMENTS = (
    list("<>\"'/=!?-[]")
    + ["li", "a", "ul", "pre", "script", "br", "LI", "A"]
    + [" ", "\t", "\n", "\r", "\xa0", "\u3000", "\x0b", "\x0c", "  "]
    + ["x", "href", "word", "&amp;", "&nbsp;", "é"]
    + ["<li>", "<li ", "<a ", "<a>", "</a>", "</li>", "</a></li>", "<li><a>",
       "</a></li><li><a ", "<ul>", "</ul>", "<pre>", "</pre>", "<br/>",
       "<script>", "</script>", "<!--", "-->", "<![CDATA[", "]]>", "<!", "<?"]
)
_HTMLISH = st.lists(st.sampled_from(_FRAGMENTS), max_size=60).map("".join)


def _tokens(pattern: re.Pattern, s: str) -> list:
    return [(m.span(), m.groups(), m.lastindex) for m in pattern.finditer(s)]


@settings(max_examples=1500, deadline=None)
@given(_HTMLISH)
@example('<a href="x>y">text</a>')            # '>' inside a quoted value
@example("<a title='it\"s'>q</a>")            # the other quote inside quotes
@example('<a "unclosed>rest')                  # unterminated quote: stray '<'
@example("<li x='1'>\n<a>one</a></li> <li><a href=\"2\">two</a></li>")
@example("</a></li><li><a/>")                  # self-close slash stays in attrs
@example("< / li >")
def test_token_scan_matches_reference(s):
    assert _tokens(oracle._TOKEN_RE, s) == _tokens(REF_TOKEN_RE, s)
    assert _tokens(oracle._LI_RUN_SCAN_RE, s) == _tokens(REF_LI_RUN_SCAN_RE, s)


def _extract_with(token_re, scan_re, html: bytes):
    saved = oracle._TOKEN_RE, oracle._LI_RUN_SCAN_RE
    oracle._TOKEN_RE, oracle._LI_RUN_SCAN_RE = token_re, scan_re
    try:
        r = extract_document(html)
    finally:
        oracle._TOKEN_RE, oracle._LI_RUN_SCAN_RE = saved
    return r.status, r.text, r.spans


@settings(max_examples=400, deadline=None)
@given(_HTMLISH, st.booleans())
def test_extract_matches_reference_patterns(body, in_pre):
    # enough fixed prose that most bodies survive the classifier, and
    # an optional <pre> so list-item runs take the pre-mode rescan
    open_, close = ("<pre>", "</pre>") if in_pre else ("<p>", "</p>")
    html = (
        '<html><head><meta charset="utf-8"></head><body><article>'
        f"{open_}a paragraph long enough to be kept as content {body}{close}"
        "</article></body></html>"
    ).encode("utf-8")
    ref = _extract_with(REF_TOKEN_RE, REF_LI_RUN_SCAN_RE, html)
    assert _extract_with(oracle._TOKEN_RE, oracle._LI_RUN_SCAN_RE, html) == ref


def test_isprintable_excludes_every_substituted_space():
    """The whitespace fast paths skip their regex when the text is
    printable and has no double space. That is sound only if no code
    point the detectors match, other than ' ', is printable."""
    ws = re.compile(r"[^\S ]")                 # add_text's detector class
    space = re.compile(r"[\t\f\v\xa0]")        # _canonicalize's detector class
    offenders = [
        hex(cp)
        for cp in range(sys.maxunicode + 1)
        if chr(cp).isprintable() and (ws.match(chr(cp)) or space.match(chr(cp)))
    ]
    assert offenders == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([f for f in _FRAGMENTS if "pre" not in f]), max_size=60))
def test_whitespace_runs_collapse_outside_pre(fragments):
    """Text runs split by inline tags ('x <a> y') join into double
    spaces that only the canonicalization regex removes; the fast path
    must still send them to it."""
    html = (
        '<html><head><meta charset="utf-8"></head><body><article>'
        f"<p>a paragraph long enough to be kept as content {''.join(fragments)}</p>"
        "</article></body></html>"
    ).encode("utf-8")
    text = extract_document(html).text
    assert "  " not in text
    assert re.search(r"[\t\f\v\xa0]", text) is None


def test_link_density_counts_collapsed_link_text():
    """Link characters are counted after whitespace collapses: a link
    padded with spaces is 3 characters of a 60-character block, not 42."""
    html = (
        '<html><head><meta charset="utf-8"></head><body><article><p>'
        "<a href='#'>a" + " " * 40 + "b</a> followed by plain words that keep this block"
        "</p></article></body></html>"
    ).encode("utf-8")
    r = extract_document(html)
    assert r.text == "a b followed by plain words that keep this block"


def test_unclosed_tag_openers_do_not_backtrack():
    """'<a ' repeated with no '>' anywhere: each '<' starts a tag whose
    attribute run reaches EOF. The backtracking scan retried every
    suffix of every run (about 10 s at 8000 openers); the possessive
    scan gives up at once and every '<' is stray text."""
    def page(n):
        return ("<html><body>" + "<a " * n).encode()

    def expected(n):
        return "ok", ("<a " * n).strip()

    small = page(300)
    ref = _extract_with(REF_TOKEN_RE, REF_LI_RUN_SCAN_RE, small)
    assert ref[:2] == expected(300)
    assert _extract_with(oracle._TOKEN_RE, oracle._LI_RUN_SCAN_RE, small) == ref

    t0 = time.perf_counter()
    r = extract_document(page(8000))
    elapsed = time.perf_counter() - t0
    assert (r.status, r.text) == expected(8000)
    assert elapsed < 3.0, f"8000 unclosed openers took {elapsed:.2f}s"
