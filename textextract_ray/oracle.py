"""The oracle extractor: pure, deterministic, single-document.

This is the rebuild of the reference's one core computation —
``extract(document) -> exact text, nothing added, nothing reformatted``
(the VLM prompt contract at reference backend/routes/api_routes.py:78:
"Extract and return only the exact text visible ... Output only the raw
text") — re-expressed as a deterministic HTML tokenizer + tag-stack
block segmentation + text-density/link-density boilerplate classifier
in the Boilerpipe/trafilatura style (public-literature heuristics:
Kohlschütter et al., "Boilerplate Detection using Shallow Text
Features", WSDM 2010).

Design constraints (SURVEY.md §7 hard parts):
  * pure function of the input bytes — no dependence on batch
    composition, row order, wall clock, or randomness, so pipeline
    output is byte-identical per url under any re-partitioning;
  * pinned charset-sniff policy (BOM → meta charset → utf-8 → latin-1)
    so span offsets never drift;
  * never raises — every failure becomes a status
    (mirrors the reference's catch-and-record policy at
    backend/routes/api_routes.py:134-152);
  * versioned (EXTRACTOR_VERSION) so checkpoint resume can refuse
    to mix outputs from different extractor versions (the version
    tuple-compare idiom of reference update_routes.py:167-183).
"""

from __future__ import annotations

import html as _htmllib
import re
from dataclasses import dataclass, field

from . import EXTRACTOR_VERSION

__all__ = ["ExtractResult", "extract_document", "EXTRACTOR_VERSION"]

# --- pinned policy constants -------------------------------------------------

MIN_HTML_BYTES = 64          # analogue of the 5x5-px min-selection filter (reference src/ocr.py:140)
MIN_CONTENT_CHARS = 25       # shortest block that can stand alone as content
MAX_LINK_DENSITY = 1.0 / 3   # boilerpipe-style link-density cutoff
DEFAULT_MAX_OUTPUT_BYTES = 4 * 1024 * 1024  # giant-doc guard (analogue of max_tokens 1024, reference api_routes.py:101-105)

# magic numbers for non-HTML payloads (the PDF/layout actor path is a
# separate stage; here they are detected, never parsed)
_MAGIC = (
    (b"%PDF-", "pdf"),
    (b"\x89PNG\r\n\x1a\n", "png"),
    (b"GIF87a", "gif"),
    (b"GIF89a", "gif"),
    (b"\xff\xd8\xff", "jpeg"),
    (b"PK\x03\x04", "zip"),
    (b"\x1f\x8b", "gzip"),
)

_BLOCK_TAGS = frozenset(
    """p div h1 h2 h3 h4 h5 h6 li ul ol dl dt dd table thead tbody tfoot tr td th
    section article main header footer nav aside blockquote pre form fieldset
    figure figcaption hr address center body html head title option select
    textarea button label""".split()
)
_HEADING_TAGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})
_SKIP_CONTENT_TAGS = frozenset({"script", "style", "template", "noscript", "svg", "head", "title"})
_CHROME_TAGS = frozenset({"nav", "header", "footer", "aside"})  # readability-style pruned regions
# void elements never pushed on the stack
_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)
# tags whose block-kind is fixed (everything else inherits the parent
# kind) — precomputed so the parser's hot loop does one dict probe
# instead of a conditional ladder per open tag
_KIND_FIXED = {t: "heading" for t in _HEADING_TAGS}
_KIND_FIXED["pre"] = "pre"
_KIND_FIXED["li"] = "li"
_KIND_FIXED["td"] = _KIND_FIXED["th"] = "cell"
_KIND_FIXED.update({t: "text" for t in _BLOCK_TAGS if t not in _KIND_FIXED})

# one dict probe per tag in the hot loop: tag -> (is_block, fixed_kind,
# is_skip_content, is_void, special) where special is one of
# None / "a" / "pre" / "chrome" / "br". Unknown tags fall back to
# _GENERIC_INFO (inline, inherits kind). Common inline tags are listed
# explicitly so real-world pages stay on the single-probe fast path.
_INLINE_TAGS = frozenset(
    """a span b i em strong u s small sup sub code abbr cite q mark time var
    kbd samp ins del strike font tt big dfn bdo ruby rt rp data output""".split()
)
_GENERIC_INFO = (False, None, False, False, None)
_TAG_INFO = {}
for _t in _BLOCK_TAGS | _SKIP_CONTENT_TAGS | _VOID_TAGS | _INLINE_TAGS | _CHROME_TAGS:
    _spec = None
    if _t == "a":
        _spec = "a"
    elif _t == "pre":
        _spec = "pre"
    elif _t == "br":
        _spec = "br"
    elif _t in _CHROME_TAGS:
        _spec = "chrome"
    _TAG_INFO[_t] = (
        _t in _BLOCK_TAGS,
        _KIND_FIXED.get(_t),
        _t in _SKIP_CONTENT_TAGS,
        _t in _VOID_TAGS,
        _spec,
    )
del _t, _spec

# Alternation order is a hot-path choice: the link-farm alternatives
# come first, then the generic tag pair (~99% of '<' positions are
# tags). Two multi-tag tokens exist, each handled by straight-line
# code replicating the generic transitions byte-identically:
#   * a RUN of full list items
#     '<li ...>(ws)<a ...>text</a></li> [ws <li...>...</li>]*'
#     (the nav/link-farm unit — 5·K generic iterations become one
#     token; each item's text is [^<]* so no token can hide inside
#     it, each close pair must be literally adjacent so the
#     trailing-space add_text of the generic path can never be
#     skipped, and inter-item gaps are pure whitespace);
#   * the item boundary '</a></li><li><a ...>' (items whose text
#     contains markup still hit this between-item token).
# The non-tag alternatives are mutually exclusive with the tag ones
# ('!' / '?' can't start a tag name), so the order cannot change what
# matches. Handlers dispatch on m.lastindex: 1 = item run, 3 =
# boundary, 7 = generic tag, None = comment/doctype/PI/stray '<'.
# Every alternative starts with '<'; the leading (?=<) lets the scan
# reject every other position before entering the alternation, and
# wraps it in a non-capturing group so group numbers stay as above.
#
# _ATTRS is the attribute run of a tag: unquoted characters and whole
# quoted strings, up to (not including) the closing '>'. It is
# possessive (no backtrack points), which cannot change any match:
# a quote is consumed only by its own quoted branch, which must end
# at the next matching quote, so the run has exactly one parse; and
# every use is followed by a '>' (after at most '/' and whitespace,
# which the run consumes itself). The maximal run stops at the first
# position outside quotes that precedes '>', so no shorter run can
# reach a '>' the maximal one missed. The backtracking form pushed
# one backtrack point per attribute character, and on a page such as
# '<a ' * 8000 (no '>' anywhere) retried every suffix. Do NOT write
# it as (?:[^>"']+|...)* — a quantifier nested in a quantifier
# backtracks exponentially on an unclosed quote.
_ATTRS = r"""(?:[^>"']++|"[^"]*+"|'[^']*+')*+"""
_LI_ITEM = (
    r"<li(?![a-zA-Z0-9:-])" + _ATTRS + r">"
    r"\s*"
    r"<a(?![a-zA-Z0-9:-])" + _ATTRS + r">"
    r"[^<]*</a></li>"
)
_TOKEN_RE = re.compile(
    r"(?=<)(?:"
    r"(" + _LI_ITEM + r"(?:\s*" + _LI_ITEM + r")*)"  # 1: item run
    r"|</a></li><li><a(?![a-zA-Z0-9:-])"  # compound boundary…
    r"(" + _ATTRS + r")(/?)>"  # …attrs + self-close (2, 3)
    r"|<\s*(/?)\s*([a-zA-Z][a-zA-Z0-9:-]*)(" + _ATTRS + r")(/?)\s*>"  # 4-7
    r"|<!--.*?(?:-->|$)"         # comments (unclosed -> to EOF)
    r"|<!\[CDATA\[.*?(?:\]\]>|$)"
    r"|<![^>]*>"                 # doctype
    r"|<\?[^>]*>"                # processing instruction
    r"|<"                        # stray '<' treated as text
    r")",
    re.DOTALL,
)
# pre-mode fallback scanner over one matched item run: items (with the
# gap and text captured) and the pure-whitespace separators between
# them — nothing else can occur inside a run by construction
_LI_RUN_SCAN_RE = re.compile(
    r"<li(?![a-zA-Z0-9:-])" + _ATTRS + r">"
    r"(\s*)"                                                  # 1 gap
    r"<a(?![a-zA-Z0-9:-])" + _ATTRS + r">"
    r"([^<]*)</a></li>"                                       # 2 text
    r"|\s+",
    re.DOTALL,
)

_META_CHARSET_RE = re.compile(
    rb"""<meta[^>]+charset\s*=\s*["']?\s*([a-zA-Z0-9_\-]+)""", re.IGNORECASE
)
_XML_ENC_RE = re.compile(rb"""<\?xml[^>]+encoding\s*=\s*["']([a-zA-Z0-9_\-]+)""", re.IGNORECASE)

_CLOSE_RES = {
    tag: re.compile(r"</\s*" + re.escape(tag) + r"\s*>", re.IGNORECASE)
    for tag in _SKIP_CONTENT_TAGS
}
_WS_RUN_RE = re.compile(r"\s+")
_SPACE_RUN_RE = re.compile(r"[ \t\f\v\xa0]+")
# identity detectors: when every whitespace run is already a single
# ' ', the \s+ -> ' ' (resp. space-class) sub is a no-op; one C-side
# search is cheaper than sub's scan+rebuild on the (very common) clean
# text runs. \s and the space class are each other's complements here,
# so `no match` proves the corresponding sub returns its input.
# Cheaper still, and tried first: every \s character other than ' '
# is non-printable (true of all code points; a test checks each one),
# so `t.isprintable() and "  " not in t` proves neither detector can
# match without running a regex.
_WS_NONIDENTITY_RE = re.compile(r"[^\S ]| {2,}")
_SPACE_NONIDENTITY_RE = re.compile(r"[\t\f\v\xa0]| {2,}")
_NL_TRIM_RE = re.compile(r" *\n *")
_NL_RUN_RE = re.compile(r"\n{2,}")


@dataclass
class ExtractResult:
    text: str = ""
    spans: list = field(default_factory=list)  # [{"start": int, "end": int, "kind": str}]
    status: str = "ok"
    error: str = ""


def sniff_charset(raw: bytes) -> str:
    """Pinned charset-sniff order: BOM -> meta/xml declaration -> utf-8.

    The declared codec is validated against Python's codec registry;
    unknown names fall through to utf-8. Decode failures at the chosen
    codec fall back to latin-1 (which never fails), keeping the decode
    total and deterministic.
    """
    if raw.startswith(b"\xef\xbb\xbf"):
        return "utf-8-sig"
    if raw.startswith(b"\xff\xfe"):
        return "utf-16-le"
    if raw.startswith(b"\xfe\xff"):
        return "utf-16-be"
    head = raw[:4096]
    m = _META_CHARSET_RE.search(head) or _XML_ENC_RE.search(head)
    if m:
        name = m.group(1).decode("ascii", "replace").strip().lower()
        try:
            import codecs

            codecs.lookup(name)
            return name
        except LookupError:
            pass
    return "utf-8"


def _decode(raw: bytes) -> str:
    codec = sniff_charset(raw)
    try:
        return raw.decode(codec)
    except (UnicodeDecodeError, LookupError):
        pass
    if codec not in ("utf-8", "utf-8-sig"):
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            pass
    return raw.decode("latin-1")


def _canonicalize(parts: list, pre: bool) -> str:
    """Pinned whitespace canonicalization for one block.

    Non-pre: every source-whitespace run is one space; explicit <br>
    markers become single newlines; edges stripped. Pre: newlines
    normalized to \\n, inner whitespace preserved, outer newlines
    stripped.
    """
    t = "".join(parts)
    if pre:
        t = t.replace("\r\n", "\n").replace("\r", "\n")
        return t.strip("\n")
    if (not t.isprintable() or "  " in t) and _SPACE_NONIDENTITY_RE.search(t) is not None:
        t = _SPACE_RUN_RE.sub(" ", t)
    if "\n" in t:  # the two newline passes are identities without one
        t = _NL_TRIM_RE.sub("\n", t)
        t = _NL_RUN_RE.sub("\n", t)
    return t.strip()


class _Block:
    __slots__ = ("parts", "link_chars", "kind", "pre", "chrome")

    def __init__(self, kind: str, pre: bool, chrome: bool):
        self.parts = []
        self.link_chars = 0
        self.kind = kind
        self.pre = pre
        self.chrome = chrome


def _parse_blocks(doc: str) -> list:
    """Tokenize HTML and segment into text blocks with a tag stack.

    Malformed input (unclosed tags, stray close tags, unquoted
    attributes) recovers deterministically: unknown close tags pop to
    the nearest matching open tag or are ignored; EOF flushes the open
    block. Never raises on any byte string that decodes.
    """
    blocks: list = []
    stack: list = []       # open tag names
    kind_stack: list = []  # incremental block-kind (nearest special tag wins)
    open_counts: dict = {}  # tag -> open count (O(1) `tag in stack` probe)
    skip_depth = 0    # inside script/style/template/noscript/svg/head
    link_depth = 0
    pre_depth = 0
    chrome_depth = 0
    cur: _Block | None = None

    def flush():
        nonlocal cur
        if cur is not None and cur.parts:
            blocks.append(cur)
        cur = None

    def block_kind() -> str:
        return kind_stack[-1] if kind_stack else "text"

    def pop_to(target: str) -> None:
        # pop semantics shared by the two compound-token closes (the
        # generic close path keeps its own inline copy for speed — it
        # is the hot loop); a future special-tag change must update
        # both, which the byte-identity digest test enforces
        nonlocal link_depth, pre_depth, chrome_depth
        while stack:
            t = stack.pop()
            open_counts[t] -= 1
            kind_stack.pop()
            if t == "a":
                link_depth = max(0, link_depth - 1)
            elif t == "pre":
                pre_depth = max(0, pre_depth - 1)
            elif t in _CHROME_TAGS:
                chrome_depth = max(0, chrome_depth - 1)
            if t == target:
                break

    def add_text(text: str, _unescape=_htmllib.unescape, _ws_sub=_WS_RUN_RE.sub):
        nonlocal cur
        if pre_depth > 0:
            if cur is None:
                cur = _Block(
                    kind_stack[-1] if kind_stack else "text", True, chrome_depth > 0
                )
            cur.parts.append(_unescape(text))
        elif text.isspace():
            # word-separating whitespace across inline tags: keep a
            # single space only if a block is already open
            if cur is not None:
                cur.parts.append(" ")
        else:
            unescaped = _unescape(text)
            if (
                (not unescaped.isprintable() or "  " in unescaped)
                and _WS_NONIDENTITY_RE.search(unescaped) is not None
            ):
                unescaped = _ws_sub(" ", unescaped)
            if unescaped:
                if cur is None:
                    cur = _Block(
                        kind_stack[-1] if kind_stack else "text", False, chrome_depth > 0
                    )
                cur.parts.append(unescaped)
                if link_depth > 0:
                    cur.link_chars += len(unescaped.strip())

    # finditer drives the scan in C (every pattern alternative starts
    # with '<', so matches occur exactly at tag positions and the gaps
    # between them are text runs); `pos` only jumps AHEAD of the
    # iterator when a skip-content element swallows its body, and
    # matches behind `pos` are discarded.
    pos = 0
    n = len(doc)
    tag_info = _TAG_INFO
    generic = _GENERIC_INFO
    _unescape = _htmllib.unescape
    for m in _TOKEN_RE.finditer(doc):
        start, end = m.span()
        if start < pos:
            continue  # inside a consumed script/style/template body
        if start > pos:
            add_text(doc[pos:start])
        pos = end
        last = m.lastindex
        if last == 1:
            # run of full list items '<li ...>(ws)<a ...>text</a></li>'
            # separated by pure whitespace: ONE token, state transitions
            # byte-identical to the 5·K generic iterations it replaces
            # (per item: open li -> open a -> add_text -> close a ->
            # close li; per separator: one whitespace add_text). The
            # li/a pushes and pops cancel exactly (nothing can
            # intervene: each item's text is [^<]*), so only the entry
            # flush and the blocks the text creates remain.
            #
            # Non-pre (the hot case): NO block is ever materialized.
            # Each item's entire text sits inside its <a>, so
            # link_chars == len(canonical) and link density is exactly
            # 1.0 > MAX_LINK_DENSITY — the classifier is guaranteed to
            # drop it (a heading-survival scan skips unkept non-heading
            # blocks, so absence cannot flip a heading); the whitespace
            # separators hit add_text's isspace branch with cur None
            # (flushed at the first <li>) and vanish. Output-identical,
            # and an entire link farm costs O(1) Python per run.
            if cur is not None:  # inline flush: the hot no-op case skips a call
                if cur.parts:
                    blocks.append(cur)
                cur = None
            if pre_depth > 0:
                # Pre mode: every gap/text materializes verbatim. Kind
                # inside an item is "li" (fixed kind of li, inherited
                # by a, link_chars never counted in pre); a separator
                # opens a block of the PARENT kind which the next
                # <li>'s flush appends — replicated per generic path.
                chrome_now = chrome_depth > 0
                parent_kind = kind_stack[-1] if kind_stack else "text"
                for im in _LI_RUN_SCAN_RE.finditer(m.group(1)):
                    if im.lastindex is None:  # inter-item whitespace
                        blk = _Block(parent_kind, True, chrome_now)
                        blk.parts.append(im.group(0))
                        blocks.append(blk)
                    else:
                        gap, text = im.group(1, 2)
                        if gap or text:
                            blk = _Block("li", True, chrome_now)
                            if gap:
                                blk.parts.append(gap)
                            if text:
                                blk.parts.append(_unescape(text))
                            blocks.append(blk)
            continue
        g1, tag, g4, comp = m.group(4, 5, 7, 2)
        if comp is not None:
            # compound '</a></li><li><a ...>' boundary: one token, but
            # state transitions byte-identical to the four generic
            # iterations it replaces (close a, close li, open li,
            # open a) — no text can occur inside the matched span
            if open_counts.get("a", 0) > 0:
                pop_to("a")
            flush()
            if open_counts.get("li", 0) > 0:
                pop_to("li")
            stack.append("li")
            open_counts["li"] = open_counts.get("li", 0) + 1
            kind_stack.append("li")
            # NOTE: comp is always '' on the current token regex (the
            # greedy attrs class consumes a trailing '/', so the (/?)
            # group never captures) — this guard is defensive for a
            # future regex that does capture the self-close slash
            if comp != "/":
                stack.append("a")
                open_counts["a"] = open_counts.get("a", 0) + 1
                kind_stack.append(kind_stack[-1])
                link_depth += 1
            continue
        if tag is None:
            # comment / doctype / PI / stray '<'
            if pos - start == 1:
                if cur is None:
                    cur = _Block(block_kind(), pre_depth > 0, chrome_depth > 0)
                cur.parts.append("<")
            continue
        info = tag_info.get(tag)
        if info is None:
            # keys are lowercase, so a hit proves `tag` needs no .lower()
            tag = tag.lower()
            info = tag_info.get(tag, generic)
        is_block, fixed_kind, is_skip, is_void, spec = info
        if spec == "br":  # <br> AND </br> both emit a newline
            if cur is None:
                cur = _Block(block_kind(), pre_depth > 0, chrome_depth > 0)
            cur.parts.append("\n")
            continue
        closing = g1 == "/"
        self_closing = g4 == "/" or is_void

        if is_skip and not closing and not self_closing:
            # consume to the matching close tag (or EOF) verbatim
            mm = _CLOSE_RES[tag].search(doc, pos)
            pos = mm.end() if mm else n
            continue

        if self_closing:
            if is_block:
                flush()
            continue
        if not closing:
            if is_block:
                flush()
            stack.append(tag)
            open_counts[tag] = open_counts.get(tag, 0) + 1
            kind_stack.append(
                fixed_kind
                if fixed_kind is not None
                else (kind_stack[-1] if kind_stack else "text")
            )
            if spec is not None:
                if spec == "a":
                    link_depth += 1
                elif spec == "pre":
                    pre_depth += 1
                else:  # chrome
                    chrome_depth += 1
        else:
            if is_block:
                flush()
            # pop to the nearest matching open tag; ignore unmatched closes
            if open_counts.get(tag, 0) > 0:
                while stack:
                    t = stack.pop()
                    open_counts[t] -= 1
                    kind_stack.pop()
                    if t == "a":
                        link_depth = max(0, link_depth - 1)
                    elif t == "pre":
                        pre_depth = max(0, pre_depth - 1)
                    elif t in _CHROME_TAGS:
                        chrome_depth = max(0, chrome_depth - 1)
                    if t == tag:
                        break
    if pos < n:
        add_text(doc[pos:n])
    flush()
    return blocks


def _classify(blocks: list) -> list:
    """Boilerpipe-style selection. Returns [(canonical_text, kind)].

    Rules (pinned; golden tests freeze them):
      * chrome blocks (inside nav/header/footer/aside) are dropped;
      * content blocks kept iff canonical length >= MIN_CONTENT_CHARS
        and link_density <= MAX_LINK_DENSITY;
      * pre blocks kept iff non-empty and link_density <= cutoff
        (code blocks are legitimately short);
      * headings kept iff the next kept content block appears before
        the next heading (a heading with no surviving section is
        boilerplate).
    """
    canon = []
    for b in blocks:
        text = _canonicalize(b.parts, b.pre)
        if not text:
            continue
        ld = (b.link_chars / len(text)) if text else 1.0
        canon.append((text, b.kind, ld, b.chrome))

    content_keep = []
    for i, (text, kind, ld, chrome) in enumerate(canon):
        if chrome or kind == "heading":
            content_keep.append(False)
        elif kind == "pre":
            content_keep.append(ld <= MAX_LINK_DENSITY)
        else:
            content_keep.append(len(text) >= MIN_CONTENT_CHARS and ld <= MAX_LINK_DENSITY)

    kept = []
    for i, (text, kind, ld, chrome) in enumerate(canon):
        if kind == "heading" and not chrome and ld <= MAX_LINK_DENSITY:
            keep = False
            for j in range(i + 1, len(canon)):
                if canon[j][1] == "heading":
                    break
                if content_keep[j]:
                    keep = True
                    break
            if keep:
                kept.append((text, "heading"))
        elif content_keep[i]:
            kept.append((text, kind))
    return kept


def extract_document(
    html: bytes | None,
    max_output_bytes: int = DEFAULT_MAX_OUTPUT_BYTES,
) -> ExtractResult:
    """Extract main content from one page. Total — never raises.

    Returns text + span offsets (into the returned text) + status.
    Statuses mirror FIXTURES.md §3: ok, empty, invalid, unsupported,
    parse_error, truncated.
    """
    try:
        if html is None or len(html) < MIN_HTML_BYTES:
            return ExtractResult(status="invalid", error="html smaller than minimum")
        for magic, name in _MAGIC:
            if html.startswith(magic):
                return ExtractResult(status="unsupported", error=f"non-html payload: {name}")
        doc = _decode(html)
        kept = _classify(_parse_blocks(doc))
        if not kept:
            return ExtractResult(status="empty")
        out_parts = []
        spans = []
        offset = 0
        status = "ok"
        budget = max_output_bytes
        for text, kind in kept:
            nbytes = len(text.encode("utf-8"))
            sep = 2 if out_parts else 0  # the "\n\n" joiner is charged too
            if budget is not None and nbytes + sep > budget:
                status = "truncated"
                break
            if out_parts:
                offset += 2
                if budget is not None:
                    budget -= 2
            out_parts.append(text)
            spans.append({"start": offset, "end": offset + len(text), "kind": kind})
            offset += len(text)
            if budget is not None:
                budget -= nbytes
        if not out_parts:
            return ExtractResult(status="truncated", error="first block exceeds output budget")
        return ExtractResult(text="\n\n".join(out_parts), spans=spans, status=status)
    except Exception as exc:  # pragma: no cover - the total-function guarantee
        return ExtractResult(status="parse_error", error=f"{type(exc).__name__}: {exc}")
