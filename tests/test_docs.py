"""Every pointer into CONVENTIONS.md from the package's docstrings and comments,
and from README, names a section or a lemma that CONVENTIONS.md has, and every
code reference in CONVENTIONS.md and README names an attribute the package has."""
import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "knotoids").glob("*.py")) + [ROOT / "README.md"]

CONVENTIONS = (ROOT / "CONVENTIONS.md").read_text()
HEADINGS = {h.strip() for h in re.findall(r"^## (.+)$", CONVENTIONS, re.M)}
# run-in titles (`**Closure lemma.**`, `**Reversal lemma for based matrices.**`)
# and headings (`## Resolution lemma`), by the words before "lemma"
TITLES = re.findall(r"\*\*([A-Z][\w -]*?) lemma\b[^*\n]*\*\*", CONVENTIONS)
LEMMAS = ({t.lower() for t in TITLES}
          | {h[:-len(" lemma")].lower() for h in HEADINGS if h.endswith(" lemma")})

# `moves._is_kink`, `sbm.SBM.row`, `sbm._form(rows, d, U)`: a module of the
# package, then the attribute path read up to the closing backtick or a call
CODE_REF = re.compile(r"`(codes|invariants|moves|sbm|surgery|vassiliev|cli|corpus|errors)"
                      r"((?:\.\w+)+)[`(]")

# `CONVENTIONS.md, "A"`, `CONVENTIONS.md, "A" and "B"`, `CONVENTIONS.md, "A", "B" and "C"`
SECTION_REF = re.compile(r'CONVENTIONS\.md, ("[^"]+"(?:(?:, |,? and )"[^"]+")*)')
# "the X lemma", and "the X, Y and Z lemmas"; no name holds another "the"
LEMMA_REF = re.compile(r"\bthe ((?:(?!the\b)[\w-]+,? )+?)lemma(s?)\b", re.I)


def _prose(path: Path) -> str:
    """The docstrings and comments of a source file, each comment block joined
    into one line, or the whole text of a Markdown file; whitespace runs are
    one space."""
    text = path.read_text()
    if path.suffix == ".py":
        nodes = ast.walk(ast.parse(text))
        parts = [ast.get_docstring(node, clean=False) or "" for node in nodes if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
        last = None
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                line = tok.string.lstrip("#")
                if last is not None and tok.start[0] == last + 1:
                    parts[-1] += line
                else:
                    parts.append(line)
                last = tok.start[0]
        text = "\n\n".join(parts)
    return re.sub(r"\s+", " ", text)


def _refs():
    sections, lemmas = [], []
    for path in SOURCES:
        prose = _prose(path)
        for run in SECTION_REF.findall(prose):
            sections += [(path.name, name) for name in re.findall(r'"([^"]+)"', run)]
        for names, _ in LEMMA_REF.findall(prose):
            lemmas += [(path.name, name) for name in re.split(r",? and |, ", names.strip())]
    return sections, lemmas


def test_section_pointers_name_headings():
    sections, _ = _refs()
    assert len(sections) >= 20
    missing = [(where, name) for where, name in sections if name not in HEADINGS]
    assert not missing, f"no such CONVENTIONS.md heading: {missing}"


def test_lemma_pointers_name_lemmas():
    _, lemmas = _refs()
    assert len(lemmas) >= 15
    missing = [(where, name) for where, name in lemmas if name.lower() not in LEMMAS]
    assert not missing, f"no such CONVENTIONS.md lemma: {missing}"


def test_every_lemma_has_a_title():
    assert {"closure", "gluing", "shared reduction", "deleted-glue", "leading-row", "view",
            "locality", "slide-locality", "resolution", "reversal"} <= LEMMAS


def test_code_references_resolve():
    refs = {(path.name, module, attrs) for path in (ROOT / "CONVENTIONS.md", ROOT / "README.md")
            for module, attrs in CODE_REF.findall(path.read_text())}
    assert len(refs) >= 30
    absent, missing = object(), []
    for where, module, attrs in sorted(refs):
        obj = importlib.import_module(f"knotoids.{module}")
        for name in attrs[1:].split("."):
            obj = getattr(obj, name, absent)
        if obj is absent:
            missing.append((where, module + attrs))
    assert not missing, f"no such attribute: {missing}"
