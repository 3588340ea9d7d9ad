"""The README describes conekit as it is.

Each number it quotes for the ratio example matches a run of that example
at the digits quoted; its ``ratio.json`` block is the config that run uses;
its lists of output columns, config keys and ``validate`` checks and the
``szego`` relation gate are the code's; and it quotes no timing, no memory
figure and no history.
"""

import csv
import json
import re
from pathlib import Path

import pytest

from conekit import cli
from conekit import szego as sz

README = Path(__file__).resolve().parents[1] / "README.md"

# the README's ratio example, which CI also runs twice for byte identity
RATIO_CONFIG = {
    "k_list": [3, 4, 5, 6, 7, 8],
    "p_list": [1.0, 1.5, 2.0],
    "mc_samples": 100000,
    "seed": 2026,
    "out_dir": "out/ratio",
}

# a number followed by a unit of time or memory
TIMING = re.compile(r"\d\s*(?:ns|us|µs|ms|s|min|h|KB|MB|GB|KiB|MiB|GiB)\b")
# phrases that tell what the code did before
HISTORY = re.compile(r"(?i:went from|in place of|where it took|used to"
                     r"|no longer|is gone|it was|\breplac(?:ed|es)\b|\bnow\b)"
                     r"|\bBefore,|\bPR \d+")


@pytest.fixture(scope="module")
def readme():
    return README.read_text()


@pytest.fixture(scope="module")
def ratio_run(tmp_path_factory):
    """report.csv's rows and manifest.json of the README's ratio example,
    run as written, from a scratch working directory."""
    cwd = tmp_path_factory.mktemp("readme")
    (cwd / "ratio.json").write_text(json.dumps(RATIO_CONFIG))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(cwd)
        assert cli.main(["ratio", "--config", "ratio.json"]) == 0
    out = cwd / RATIO_CONFIG["out_dir"]
    with open(out / "report.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    return rows, json.loads((out / "manifest.json").read_text())


def _section(text, heading):
    """The lines under the heading line ``heading``, up to the next
    heading."""
    lines = text.splitlines()
    start = lines.index(heading) + 1
    end = next((i for i in range(start, len(lines))
                if lines[i].startswith("#")), len(lines))
    return lines[start:end]


def _tables(lines):
    """Each markdown table in ``lines``: its rows of stripped cells, the
    header first and the separator row dropped."""
    tables, rows = [], []
    for line in [*lines, ""]:
        if line.startswith("|"):
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            if not all(set(c) <= set("-: ") for c in cells):
                rows.append(cells)
        elif rows:
            tables.append(rows)
            rows = []
    return tables


def _table(text, heading, first):
    """The rows, header dropped, of the table under ``heading`` whose header
    starts with the cell ``first``."""
    (table,) = [t for t in _tables(_section(text, heading))
                if t[0][0] == first]
    return table[1:]


def _names(cell):
    return re.findall(r"`([^`]+)`", cell)


def _at_digits(quoted, value):
    """True when ``value`` rounds to the string ``quoted``, at the number of
    decimals it shows."""
    return f"{value:.{len(quoted.partition('.')[2])}f}" == quoted


# --- (a) the numbers quoted for the ratio example ------------------------------

def test_ratio_table_matches_a_run_at_the_digits_quoted(readme, ratio_run):
    rows, _ = ratio_run
    (table,) = _tables(_section(readme, "## What it shows"))
    header, *body = table
    columns = []
    for cell in header:
        (name,) = _names(cell)
        p = re.search(r"p = ([\d.]+)", cell)
        columns.append((name, float(p.group(1)) if p else None))
    assert [int(cells[0]) for cells in body] == RATIO_CONFIG["k_list"]
    for cells in body:
        k = int(cells[0])
        for (name, p), quoted in zip(columns, cells, strict=True):
            # a column with no p is the same on every row of the level
            row = next(r for r in rows if int(r["k"]) == k
                       and (p is None or float(r["p"]) == p))
            assert _at_digits(quoted, float(row[name])), (k, name, p, quoted)
    # the claim the table illustrates: the ratio grows below p = 2 and, up
    # to the rounding of lhs, stays fixed at the control
    for p in RATIO_CONFIG["p_list"]:
        ratios = [float(r["ratio"]) for r in rows if float(r["p"]) == p]
        if p < 2.0:
            assert all(b > a for a, b in zip(ratios, ratios[1:]))
        else:
            assert max(ratios) - min(ratios) <= 1e-12 * max(ratios)


def test_level_constants_match_a_run_at_the_digits_quoted(readme, ratio_run):
    rows, manifest = ratio_run
    per_level = {
        "lhs": [float(r["lhs"]) for r in rows],
        "kappa": list(manifest["kappa"].values()),
    }
    quoted = re.findall(r"`(\w+)` is ([\d.]+) at every level", readme)
    assert sorted(name for name, _ in quoted) == sorted(per_level)
    for name, number in quoted:
        assert all(_at_digits(number, v) for v in per_level[name]), name


# --- (b) the config block -------------------------------------------------------

def test_ratio_config_block_is_the_config_run(readme):
    block = re.search(r"Example `ratio\.json`:\n\n```json\n(.*?)```", readme,
                      re.S)
    assert json.loads(block.group(1)) == RATIO_CONFIG


# --- (c) columns, config keys and validate checks ---------------------------------

def test_report_columns_are_the_code_s(readme):
    documented = [name for cells in _table(readme, "### `ratio`", "column")
                  for name in _names(cells[0])]
    assert documented == list(cli.REPORT_COLUMNS)


def test_stats_columns_are_the_code_s(readme, tmp_path):
    assert cli.main(["besicovitch", "--k", "1", "--out", str(tmp_path)]) == 0
    header = (tmp_path / "stats.csv").read_text().splitlines()[0].split(",")
    documented = [name
                  for cells in _table(readme, "### `besicovitch`", "column")
                  for name in _names(cells[0])]
    assert documented == header


@pytest.mark.parametrize("heading, schema", [
    ("### `ratio`", cli.RATIO_SCHEMA), ("### `szego`", cli.SZEGO_SCHEMA)],
    ids=["ratio", "szego"])
def test_config_keys_and_defaults_are_the_code_s(readme, heading, schema):
    documented = {}
    for cells in _table(readme, heading, "key"):
        (key,) = _names(cells[0])
        documented[key] = (cli.REQUIRED if cells[1] == "required"
                           else json.loads(_names(cells[1])[0]))
    assert documented == {key: default
                          for key, (_, default) in schema.items()}


def test_relation_gate_is_the_code_s(readme):
    rule = re.search(r"a residual exceeds `([^`]+)`",
                     " ".join(_section(readme, "### `szego`")))
    assert float(rule.group(1)) == sz.RELATION_TOL


def test_validate_checks_are_the_code_s(readme):
    bullets = []
    for line in _section(readme, "### `validate`"):
        if line.startswith("* "):
            bullets.append(line[2:])
        elif line.startswith("  ") and bullets:
            bullets[-1] += " " + line.strip()
    documented = {}
    for bullet in bullets:
        suite, *labels = _names(bullet)
        documented[suite] = labels
    code = {name: [label for label, _ in checks(False)]
            for name, checks in cli.SUITES.items()}
    assert documented == code
    count = re.search(r"`all` runs (\d+) checks",
                      " ".join(_section(readme, "### `validate`")))
    assert int(count.group(1)) == sum(map(len, code.values())) == 17


# --- (d) no timings and no history ----------------------------------------------

def test_no_timing_or_memory_figure(readme):
    assert TIMING.findall(readme) == []


def test_no_history(readme):
    assert HISTORY.findall(readme) == []
