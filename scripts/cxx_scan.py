"""Compiler-free C++ scanning helpers shared by the static analyzers.

scripts/scope_check.py and scripts/hotpath_check.py parse src/ the same
way: comments and literals masked out (offsets kept), bracket matching,
top-level argument splitting, and the same class-body and file walk.
This module is that front end; each analyzer keeps only its own passes.
"""
import os
import re

DEFAULT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

POST_CALL = re.compile(r"(?:->|\.)\s*post\s*\(")  # post_resume does not match
CLASS_DEF = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)\b")


def mask_comments_and_strings(text):
    """Replace comments and string/char literals with spaces (offsets kept)."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            for k in range(i, min(j + 1, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def matching(masked, start, open_ch, close_ch):
    """Offset of the close matching masked[start] == open_ch, or -1."""
    depth = 0
    for i in range(start, len(masked)):
        c = masked[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def split_top_level(masked_text):
    """Split on commas at bracket depth zero; returns (start, end) spans."""
    spans, depth, begin = [], 0, 0
    for i, c in enumerate(masked_text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            spans.append((begin, i))
            begin = i + 1
    spans.append((begin, len(masked_text)))
    return spans


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def source_files(top, exts=(".hpp", ".h", ".cpp")):
    for dirpath, dirnames, names in os.walk(top):
        dirnames.sort()
        # Fixture trees are deliberately dirty; skip them unless they ARE
        # the scan root (the self-tests point --root at one).
        if "lint_fixtures" in os.path.relpath(dirpath, top).split(os.sep):
            continue
        for name in sorted(names):
            if os.path.splitext(name)[1] in exts:
                yield os.path.join(dirpath, name)


class SourceFile:
    def __init__(self, path, root):
        self.path = path
        self.rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            self.raw = f.read()
        self.masked = mask_comments_and_strings(self.raw)
        self.lines = self.raw.splitlines()


def innermost_class(classes, offset):
    """The class whose body (start, end) most tightly encloses offset."""
    best = None
    for c in classes:
        if c.start < offset < c.end:
            if best is None or c.start > best.start:
                best = c
    return best
