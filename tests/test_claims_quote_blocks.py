"""The hand-written claims quote the generated blocks.

EXPERIMENTS.md's measured tables are regenerated between section
markers; the prose around them (and README's summary) is not.  These
tests read the FIG2/FIG3 blocks and check that every number the prose
quotes from them is the block's number.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
README = (ROOT / "README.md").read_text(encoding="utf-8")


def block_columns(name):
    """{column header: [(users, value)]} of a marked throughput block;
    ``n/a`` cells are skipped."""
    match = re.search(rf"<!-- section: {name} -->\n```\n(.*?)\n```\n"
                      rf"<!-- /section -->", EXPERIMENTS, flags=re.S)
    assert match, f"EXPERIMENTS.md has no marked {name} block"
    _title, header, *rows = match[1].splitlines()
    columns = header.split()[1:]
    table = {column: [] for column in columns}
    for row in rows:
        users, *cells = row.split()
        for column, cell in zip(columns, cells):
            if cell != "n/a":
                table[column].append((int(users), float(cell)))
    return table


def column_max(table, column):
    """(value, users) of a column's maximum (first row on ties)."""
    users, value = max(table[column], key=lambda pair: pair[1])
    return value, users


def peak(table):
    return max(value for cells in table.values() for _, value in cells)


def claim(pattern, text):
    match = re.search(pattern, text)
    assert match, f"no claim matching {pattern!r}"
    return match.groups()


def test_fig2_rows_quote_the_block_maxima():
    table = block_columns("fig2_same_zone")
    value, users = claim(r"2-slave max (\d+\.\d) ops/s at (\d+) users",
                         EXPERIMENTS)
    assert (float(value), int(users)) == column_max(table, "2-slave")
    four, two = claim(r"4-slave max (\d+\.\d) ≈ 2-slave max (\d+\.\d)",
                      EXPERIMENTS)
    assert float(four) == column_max(table, "4-slave")[0]
    assert float(two) == column_max(table, "2-slave")[0]


def test_fig3_ratio_row_quotes_the_block_peaks():
    fig2 = peak(block_columns("fig2_same_zone"))
    fig3 = peak(block_columns("fig3_same_zone"))
    a, b, ratio = claim(r"(\d+\.\d) / (\d+\.\d) = \*\*(\d+\.\d+)×\*\*",
                        EXPERIMENTS)
    assert (float(a), float(b)) == (fig3, fig2)
    assert ratio == f"{fig3 / fig2:.2f}"


def test_readme_peaks_line_quotes_the_block_peaks():
    fig2 = peak(block_columns("fig2_same_zone"))
    fig3 = peak(block_columns("fig3_same_zone"))
    low, high, ratio = claim(
        r"peaks (\d+\.\d) vs (\d+\.\d) ops/s; ratio (\d+\.\d+)", README)
    assert (float(low), float(high)) == (fig2, fig3)
    assert ratio == f"{fig3 / fig2:.2f}"
