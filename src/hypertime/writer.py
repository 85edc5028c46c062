"""Output files: write-then-rename, and the text of heatmaps and CSV rows.

Stdlib only: `evaluate` and `predict` also run this file as a script, a
second interpreter that formats part of their output while they format
the rest.  Both apply the same routine's `repr` to the same doubles, so
the bytes do not depend on the process."""

import array
import itertools
import json
import os
import sys

# Rows of CSV text formatted at a time.
ROW_BLOCK = 8192


def write_text(path, text, force):
    """Write `text`, a string or strings in turn, through a renamed file;
    a failed write leaves neither the file nor its temporary file."""
    if os.path.exists(path) and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def csv_rows(columns):
    """The CSV lines of equal-length `columns` that slice to something with
    `tolist`, `ROW_BLOCK` rows a string: one block's strings at a time."""
    for r0 in range(0, len(columns[0]), ROW_BLOCK):
        fields = [list(map(repr, c[r0:r0 + ROW_BLOCK].tolist()))
                  for c in columns]
        yield "\n".join(map(",".join, zip(*fields))) + "\n"


def heatmap_blocks(axes, times, obs, pred):
    """One heatmap file's text, a spatial cell's lines at a time: `axes`
    (a list per spatial axis) and `times` hold the cell centres; `obs` and
    `pred` are flat in C order and slice to something with `tolist`."""
    yield "# " + " ".join([f"x{d + 1}" for d in range(len(axes))]
                          + ["t", "observed", "predicted"]) + "\n"
    places = itertools.product(*(list(map(repr, axis)) for axis in axes))
    times = list(map(repr, times))
    labels = {}  # one string per distinct observed count
    n = len(times)
    for i, place in enumerate(places):
        prefix = "".join(x + " " for x in place)
        cell = slice(i * n, (i + 1) * n)
        yield "".join(f"{prefix}{t} {o} {p}\n" for t, o, p in zip(
            times, [labels.get(o) or labels.setdefault(o, repr(o))
                    for o in obs[cell].tolist()],
            list(map(repr, pred[cell].tolist()))))


def send(stream, files, force):
    """Request `files`, each ``(path, axes, times, obs, pred)`` with
    C-contiguous float64 `obs` and `pred`, from `main` on the binary
    `stream`: one JSON line, then each file's two arrays as raw bytes."""
    head = [{"path": path, "axes": axes, "times": times, "cells": len(pred)}
            for path, axes, times, _, pred in files]
    stream.write(json.dumps({"force": force, "files": head}).encode() + b"\n")
    stream.writelines(a for *_, obs, pred in files for a in (obs, pred))
    stream.flush()


def send_rows(stream, columns):
    """Request the `csv_rows` text of `columns`, C-contiguous float64
    arrays of one length (or a 2-D array's rows), from `main`."""
    head = {"rows": len(columns[0]), "columns": len(columns)}
    stream.write(json.dumps(head).encode() + b"\n")
    stream.writelines(columns)
    stream.flush()


def _doubles(stream, n):
    values = array.array("d")
    values.fromfile(stream, n)
    return memoryview(values)


def main(stream, out):
    """Write the heatmaps, or to the binary `out` the rows' text, that `send`
    or `send_rows` requested on `stream`, if any.  The request is read
    whole and the text kept until complete, so neither process waits on
    the other while both format."""
    line = stream.readline()
    request = json.loads(line) if line else {"files": []}
    if "rows" in request:
        n, width = request["rows"], request["columns"]
        values = _doubles(stream, n * width)
        out.writelines([block.encode() for block in csv_rows(
            [values[i * n:(i + 1) * n] for i in range(width)])])
        out.flush()
        return
    files = [(f, _doubles(stream, 2 * f["cells"])) for f in request["files"]]
    for f, cells in files:
        write_text(f["path"], heatmap_blocks(
            f["axes"], f["times"], cells[:f["cells"]], cells[f["cells"]:]),
            request["force"])


if __name__ == "__main__":
    try:
        main(sys.stdin.buffer, sys.stdout.buffer)
    except (EOFError, OSError, ValueError) as exc:
        sys.exit(str(exc))  # to stderr, with exit status 1
