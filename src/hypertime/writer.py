"""Output files: write-then-rename, and the text of event heatmaps.

Stdlib only: `evaluate` also runs this file as a script, a second
interpreter that writes the heatmaps `send` hands it while `evaluate`
writes the rest.  Both apply `heatmap_blocks`' `repr` to the same
doubles, so the bytes do not depend on the process."""

import array
import itertools
import json
import os
import sys


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


def main(stream):
    """Write the heatmaps `send` requested on `stream`, if any; every array
    is read first, so the sender never waits on this process's writing."""
    line = stream.readline()
    request = json.loads(line) if line else {"files": []}
    files = []
    for f in request["files"]:
        cells = array.array("d")
        cells.fromfile(stream, 2 * f["cells"])
        files.append((f, memoryview(cells)))
    for f, cells in files:
        write_text(f["path"], heatmap_blocks(
            f["axes"], f["times"], cells[:f["cells"]], cells[f["cells"]:]),
            request["force"])


if __name__ == "__main__":
    try:
        main(sys.stdin.buffer)
    except (EOFError, OSError, ValueError) as exc:
        sys.exit(str(exc))  # to stderr, with exit status 1
