"""End-to-end fuzz of ``cli.main``: random argv over the real subcommands and
options, with generated graph and target files mutated before they are read.

Every size stays small so that no example runs long or uses much memory:
graphs of at most 40 vertices (10 for ``solve``), grids of at most 12 x 12,
``bounds`` spans of at most 50, ``full minimal`` with an explicit
``--n-cap`` of at most 3, and ``solve chio`` on a graph of more than 6
vertices only with an explicit ``--k-max`` of at most 3.  ``selftest`` is
left out: it runs for a minute.
"""

import contextlib
import functools
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from orichrome import cyclic_k66_target, generate, graph_to_json, sample_full, serialize_edge_list
from orichrome.cli import main
from orichrome.generate import GEN_KINDS

from conftest import cyclic_k44_target

# what a mutation may put in place of a number in a file
TOKENS = ("-1", "0", "1", "2", "7", "40", "1.5", "x", "", "nan", "true")
# what a mutation may put in place of a field of a target's JSON
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=9),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(min_value=-1, max_value=9), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(min_value=0, max_value=3), max_size=2),
)
TARGET_FIELDS = ("k", "d", "N", "seed", "arcs", "certificate", "verified", "verifier_version")


@functools.cache
def _sampled_target_json() -> str:
    return sample_full(5, 2, seed=1).to_json()


@st.composite
def mutated(draw, text: str) -> bytes:
    """``text`` with up to two edits: a truncation, a deleted character, a
    dropped or repeated line, a number replaced by one of TOKENS, or a byte
    that is not UTF-8.  None of them can make a size larger than 40."""
    data = text
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        op = draw(st.sampled_from(("truncate", "delete", "drop-line", "repeat-line", "token", "byte")))
        at = draw(st.integers(min_value=0, max_value=10_000))
        lines = data.splitlines(keepends=True)
        numbers = list(re.finditer(r"\d+", data))
        if op == "truncate":
            data = data[: at % (len(data) + 1)]
        elif op == "delete" and data:
            i = at % len(data)
            data = data[:i] + data[i + 1 :]
        elif op == "drop-line" and lines:
            del lines[at % len(lines)]
            data = "".join(lines)
        elif op == "repeat-line" and lines:
            i = at % len(lines)
            data = "".join(lines[: i + 1] + lines[i:])
        elif op == "token" and numbers:
            m = numbers[at % len(numbers)]
            data = data[: m.start()] + draw(st.sampled_from(TOKENS)) + data[m.end() :]
        elif op == "byte":
            i = at % (len(data) + 1)
            return data[:i].encode() + b"\xff" + data[i:].encode()
    return data.encode()


@st.composite
def graph_file(draw, max_n: int) -> tuple[int, bytes]:
    """A generated graph of at most ``max_n`` vertices as an edge list or
    JSON, mutated, with its vertex count before the mutation."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    kind = draw(st.sampled_from(GEN_KINDS)) if n >= 9 else "random-oriented"
    rows = draw(st.integers(min_value=3, max_value=min(12, n // 3))) if n >= 9 else 3
    params = {"n": n, "rows": rows, "cols": min(12, n // rows), "density": draw(st.floats(0, 1))}
    g = generate(kind, seed=draw(st.integers(min_value=0, max_value=3)), **params)
    text = draw(st.sampled_from((serialize_edge_list, graph_to_json)))(g)
    return n, draw(mutated(text))


@st.composite
def target_file(draw) -> bytes:
    """A bundled or sampled target's JSON with a field replaced or dropped,
    then mutated as text."""
    text = draw(
        st.sampled_from(
            (
                lambda: cyclic_k44_target(1).to_json(),
                lambda: cyclic_k44_target(2).to_json(),
                lambda: cyclic_k66_target().to_json(),
                _sampled_target_json,
            )
        )
    )()
    obj = json.loads(text)
    obj["certificate"]["verified"] = draw(st.booleans())
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        field = draw(st.sampled_from(TARGET_FIELDS))
        home = obj.get("certificate") if field in ("verified", "verifier_version") else obj
        if not isinstance(home, dict):
            continue
        if draw(st.booleans()):
            home.pop(field, None)
        else:
            home[field] = draw(JSON_VALUES)
    return draw(mutated(json.dumps(obj)))


def ints(lo: int, hi: int):
    return st.integers(min_value=lo, max_value=hi).map(str)


@st.composite
def command(draw, workdir: Path) -> list[str]:
    """argv for one subcommand other than selftest; files are written into
    ``workdir``, and an input path may also name no file or a directory."""
    options: list[list[str]] = []

    def option(name: str, values) -> None:
        if draw(st.booleans()):
            options.append([name, draw(values)])

    def write(name: str, content) -> str:
        choice = draw(st.sampled_from(("file", "file", "file", "missing", "directory")))
        if choice == "missing":
            return str(workdir / "missing" / name)
        if choice == "directory":
            return str(workdir)
        (workdir / name).write_bytes(draw(content))
        return str(workdir / name)

    sub = draw(st.sampled_from(("solve", "full", "colour", "bounds", "gen")))
    if sub == "solve":
        which = draw(st.sampled_from(("chio", "chi2")))
        n, content = draw(graph_file(10))
        words = ["solve", which, write("g.og", st.just(content))]
        if which == "chio" and n > 6:
            options.append(["--k-max", draw(ints(-1, 3))])
        else:
            option("--k-max", ints(-2, 9))
    elif sub == "full":
        action = draw(st.sampled_from(("sample", "verify", "minimal")))
        if action == "sample":
            words = ["full", "sample", draw(ints(-1, 6)), draw(ints(-1, 3))]
            option("--seed", st.integers(min_value=-2, max_value=1 << 65).map(str))
            option("--out", st.sampled_from((str(workdir / "t.json"), str(workdir / "no" / "t.json"))))
        elif action == "verify":
            words = ["full", "verify", write("t.json", target_file())]
        else:
            words = ["full", "minimal", draw(ints(-1, 4)), draw(ints(-1, 3))]
            options.append(["--n-cap", draw(ints(-1, 3))])
    elif sub == "colour":
        words = ["colour", write("g.og", graph_file(40).map(lambda g: g[1])), "--g", draw(ints(-1, 7))]
        if draw(st.booleans()):
            options.append(["--target-file", write("t.json", target_file())])
        option("--free-classes", ints(-1, 6))
    elif sub == "bounds":
        g_min = draw(st.integers(min_value=-2, max_value=300))
        words = ["bounds", str(g_min), str(g_min + draw(st.integers(min_value=-2, max_value=50)))]
    else:
        words = ["gen", draw(st.sampled_from(GEN_KINDS))]
        option("--n", ints(-3, 40))
        option("--rows", ints(-1, 12))
        option("--cols", ints(-1, 12))
        option("--density", st.floats().map(str))
        option("--format", st.sampled_from(("edges", "json", "csv")))
        option("--seed", st.integers(min_value=-2, max_value=1 << 65).map(str))
    argv = words + [word for pair in draw(st.permutations(options)) for word in pair]
    # a stray word, a repeated or unknown option or --help, or one word missing
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        at = draw(st.integers(min_value=0, max_value=len(argv)))
        argv.insert(at, draw(st.sampled_from(("--help", "--bogus", "extra", "--seed", "-1", "--g"))))
    elif draw(st.integers(min_value=0, max_value=7)) == 0:
        del argv[draw(st.integers(min_value=0, max_value=len(argv) - 1))]
    return argv


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_main_status_and_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(command(Path(tmp)), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse's --help, which exits 0
                status = exc.code
    assert status in (0, 1, 2, 3)
    if status:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
    assert "Traceback" not in err.getvalue()
