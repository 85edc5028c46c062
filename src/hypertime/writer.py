"""Output files: write-then-rename, and the text of heatmaps and CSV rows.

Stdlib only: `predict` also runs this file as a script, the writer
helper, a second interpreter that formats the rows past the midpoint
while `predict` formats the rest.  Both apply the same routine's `repr`
to the same doubles, so the bytes do not depend on the process."""

import array
import itertools
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


def send_rows(stream, columns):
    """Request the `csv_rows` text of `columns`, C-contiguous float64
    arrays of one length (or a 2-D array's rows), from `main`: an ASCII
    line ``<rows> <columns>``, then the arrays as raw bytes."""
    stream.write(f"{len(columns[0])} {len(columns)}\n".encode())
    stream.writelines(columns)
    stream.flush()


def _doubles(stream, n):
    values = array.array("d")
    values.fromfile(stream, n)
    return memoryview(values)


def main(stream, out):
    """Write to the binary `out` the rows' text that `send_rows` requested
    on `stream`, if any.  The request is read whole and the text kept
    until complete, so neither process waits on the other while both
    format."""
    line = stream.readline()
    if not line:
        return
    try:
        n, width = map(int, line.split())
    except ValueError:
        raise ValueError(f"bad request header {line[:80]!r}") from None
    values = _doubles(stream, n * width)
    out.writelines([block.encode() for block in csv_rows(
        [values[i * n:(i + 1) * n] for i in range(width)])])
    out.flush()


if __name__ == "__main__":
    try:
        main(sys.stdin.buffer, sys.stdout.buffer)
    except (EOFError, OSError, ValueError) as exc:
        sys.exit(str(exc))  # to stderr, with exit status 1
