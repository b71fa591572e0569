"""Compare two directories written by tools/cli_outputs.py.

    python3 tools/compare_outputs.py OLD NEW

For each output file it prints the largest relative move of any number,
|old - new| / max(|old|, |new|), and where it is. Then it lists every change
that is not a move of a number: an exit code, a battery row id, a pass flag,
a regime verdict, a number of metastable windows, or a file that only one
directory holds. It exits 1 when it lists any, else 0, so a change that
moves values within a search tolerance passes and one that changes a
conclusion does not. Any other changed text value, such as a validity
flag, is printed as a note and does not change the exit code, and so is
every count of counts.txt that moved (the induced-norm calls, maps,
single-map calls, classical maps and full results built of each output),
or that file missing from one directory:

    PYTHONPATH=old/src python3 tools/cli_outputs.py out-old
    PYTHONPATH=src python3 tools/cli_outputs.py out-new
    python3 tools/compare_outputs.py out-old out-new
"""
import argparse
import csv
import json
import math
import os
import sys

# leaf names whose values are pass flags; a name ending in "verdict" is a
# regime verdict
PASS_KEYS = ("pass", "all_pass", "failed_ids")
# the file of norm-call counts, which notes report and no change lists
COUNTS = "counts.txt"


def _files(root):
    out = set()
    for here, _, names in os.walk(root):
        for name in names:
            out.add(os.path.relpath(os.path.join(here, name), root))
    return out


def _leaves(obj, path=()):
    """(path, value) of every scalar in a parsed JSON document; a list of
    scalars, such as failed_ids, is one leaf."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list) and any(isinstance(v, (dict, list))
                                       for v in obj):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    else:
        yield path, obj


def _csv_leaves(text):
    """(path, value) of every cell of a CSV output, numbers as floats; the
    path is (row index, column name). Comment lines are skipped."""
    rows = list(csv.reader(line for line in text.splitlines()
                           if not line.startswith("#")))
    if not rows:
        return
    header = rows[0]
    for i, row in enumerate(rows[1:]):
        for column, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                value = cell
            if column == "pass":
                value = cell == "1"
            yield (i, column), value


def _status(text):
    """{output file: exit code} of a status.txt."""
    codes = {}
    for line in text.splitlines():
        name, _, code = line.split(" ", 3)[:3]
        codes[name] = int(code)
    return codes


def _counts(text):
    """{(output file, count name): count} of a counts.txt."""
    counts = {}
    for line in text.splitlines():
        name, *fields = line.split()
        for what, n in zip(fields[::2], fields[1::2]):
            counts[name, what] = int(n)
    return counts


def _label(path):
    out = ""
    for part in path:
        out += "[%d]" % part if isinstance(part, int) else \
            ("." if out else "") + str(part)
    return out


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _relative_move(a, b):
    a = math.nan if a is None else float(a)
    b = math.nan if b is None else float(b)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare_file(name, old_text, new_text):
    """(largest relative move, its label, listed changes, notes) of one
    file."""
    if os.path.basename(name) == "status.txt":
        old, new = _status(old_text), _status(new_text)
        changes = ["%s: exit code %s -> %s" % (out, old.get(out), new.get(out))
                   for out in sorted(set(old) | set(new))
                   if old.get(out) != new.get(out)]
        return 0.0, "", changes, []
    if os.path.basename(name) == COUNTS:
        old, new = _counts(old_text), _counts(new_text)
        moves = [(_relative_move(old.get(k), new.get(k)), k)
                 for k in sorted(set(old) | set(new))]
        notes = ["%s: %s %s %s -> %s" % (name, *k, old.get(k), new.get(k))
                 for move, k in moves if move]
        largest, where = max(moves, default=(0.0, ()))
        return largest, " ".join(where) if largest else "", [], notes
    if name.endswith(".json"):
        old_doc, new_doc = json.loads(old_text), json.loads(new_text)
        old, new = dict(_leaves(old_doc)), dict(_leaves(new_doc))
    elif name.endswith(".csv"):
        old, new = dict(_csv_leaves(old_text)), dict(_csv_leaves(new_text))
        old_doc = new_doc = None
    else:
        notes = [] if old_text == new_text else ["%s: text differs" % name]
        return 0.0, "", [], notes
    changes, notes = [], []
    if isinstance(old_doc, dict) and isinstance(new_doc, dict):
        n_old = len(old_doc.get("metastable_windows", []))
        n_new = len(new_doc.get("metastable_windows", []))
        if n_old != n_new:
            changes.append("%s: window count %d -> %d" % (name, n_old, n_new))
    if name.endswith(".csv"):
        ids_old = [v for (_, col), v in sorted(old.items()) if col == "id"]
        ids_new = [v for (_, col), v in sorted(new.items()) if col == "id"]
    else:
        ids_old = [v for p, v in old.items() if p and p[-1] == "id"]
        ids_new = [v for p, v in new.items() if p and p[-1] == "id"]
    if ids_old != ids_new:
        changes.append("%s: row ids %s -> %s" % (
            name, sorted(set(ids_old) - set(ids_new)),
            sorted(set(ids_new) - set(ids_old))))
    largest, where = 0.0, ""
    for path in (p for p in old if p in new):
        a, b = old[path], new[path]
        key = str(path[-1]) if path else ""
        if all(_is_number(x) or x is None for x in (a, b)):
            move = _relative_move(a, b)
            if move > largest:
                largest, where = move, _label(path)
        elif a != b:
            conclusion = key in PASS_KEYS or key.endswith("verdict")
            (changes if conclusion else notes).append(
                "%s: %s %r -> %r" % (name, _label(path), a, b))
    return largest, where, sorted(changes), sorted(notes)


def compare(old_dir, new_dir, out=sys.stdout):
    """Print the report; returns the listed changes."""
    old_files, new_files = _files(old_dir), _files(new_dir)
    changes, notes = [], []
    for names, where in ((old_files - new_files, old_dir),
                         (new_files - old_files, new_dir)):
        for name in sorted(names):
            (notes if name == COUNTS else changes).append(
                "%s: only in %s" % (name, where))
    for name in sorted(old_files & new_files):
        with open(os.path.join(old_dir, name)) as fh:
            old_text = fh.read()
        with open(os.path.join(new_dir, name)) as fh:
            new_text = fh.read()
        largest, where, listed, noted = compare_file(name, old_text, new_text)
        changes += listed
        notes += noted
        if old_text == new_text:
            out.write("%s: identical\n" % name)
        else:
            out.write("%s: largest relative move %.3g%s\n"
                      % (name, largest, " at " + where if where else ""))
    for note in notes:
        out.write("NOTE %s\n" % note)
    for change in changes:
        out.write("CHANGED %s\n" % change)
    return changes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    return 1 if compare(args.old, args.new) else 0


if __name__ == "__main__":
    sys.exit(main())
