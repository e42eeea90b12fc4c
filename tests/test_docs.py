"""README's rule table is rendered from the actions' declarations.

Each row gives an action's label, its table, its `when`, what it reads only
from the owner's store (`reads - nbr_reads`), what it reads from neighbors
(`nbr_reads`), its `writes` and, for a keyed row, its array, `fixed` and the
first docstring line of its marks function.  On a mismatch the test prints
the table to paste between README's two marker comments.
"""

from pathlib import Path

import pytest

from stabsim.bfs import CHILDREN
from stabsim.graphs import grid_graph, path_graph
from stabsim.kgrouping import GRADIENT, TARGET_VIEW, kgrouping_binding
from stabsim.loop import compose

README = Path(__file__).resolve().parent.parent / "README.md"
BEGIN = "<!-- rule table: generated by tests/test_docs.py -->"
END = "<!-- end of rule table -->"
HEADER = (
    "| label | table | `when` | owner-only reads | neighbor reads | writes"
    " | keyed array | `fixed` | marks |",
    "|---|---|---|---|---|---|---|---|---|",
)


def _names(names) -> str:
    return ", ".join(f"`{x}`" for x in sorted(names))


def _when(when) -> str:
    if when is None:
        return ""
    return "; ".join(f"`{x}` ∈ {{{', '.join(map(str, values))}}}"
                     for x, values in sorted(when.items()))


def _row(table: str, action) -> str:
    cells = [action.label, table, _when(action.when),
             _names(action.reads - action.nbr_reads), _names(action.nbr_reads),
             _names(action.writes)]
    keyed = action.keyed
    if keyed is None:
        cells += ["", "", ""]
    else:
        marks = keyed.marks.__doc__.strip().splitlines()[0] if keyed.marks else ""
        cells += [f"`{keyed.array}`", _names(keyed.fixed), marks]
    return "| " + " | ".join(cells) + " |"


def _tables(graph, k):
    binding = kgrouping_binding(k)
    return (
        ("composed", compose(binding, graph).actions),
        ("init", binding.init.actions),
        ("merge", binding.base.actions),
        ("view", (binding.error_check, CHILDREN, GRADIENT, TARGET_VIEW)),
    )


def rule_table(graph, k) -> str:
    """The README block: the markers around the table's rows."""
    rows = [_row(name, a) for name, actions in _tables(graph, k) for a in actions]
    return "\n".join((BEGIN, *HEADER, *rows, END))


def _readme_table() -> str:
    text = README.read_text(encoding="utf-8")
    start, end = text.find(BEGIN), text.find(END)
    assert 0 <= start < end, "README lacks the rule table's marker comments"
    return text[start:end + len(END)]


def test_readme_rule_table_is_generated():
    table = rule_table(path_graph(3), 2)
    if _readme_table() != table:
        print(table)
        pytest.fail("README's rule table differs from the declarations; "
                    "paste the table printed above between its markers")


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("graph", [path_graph(3), grid_graph(3, 3)], ids=["path3", "grid3x3"])
def test_rule_table_holds_for_every_k_and_graph(graph, k):
    assert rule_table(graph, k) == rule_table(path_graph(3), 2)


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.find("```python\n", text.find("## Library entry points"))
    end = text.find("```\n", start + 1)
    assert 0 <= start < end, "README lacks the library entry points block"
    return text[start + len("```python\n"):end]


def test_readme_library_block_prints_what_its_comments_say(capsys):
    # Each print line of the block ends in a comment giving its output,
    # optionally followed by " -- " and a remark.
    block = _library_block()
    expected = [line.split("#", 1)[1].split(" -- ")[0].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert len(expected) == 2
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
