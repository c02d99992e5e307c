"""Small shared helpers: deterministic parallel map and CSV writing."""

from __future__ import annotations


def parallel_map(fn, tasks, jobs: int = 1) -> list:
    """Map preserving task order; jobs <= 1 runs in-process.

    Each task must be a pure function of its arguments so the result is
    independent of scheduling.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported here: the pool's module takes about 20 ms to import, which
    # a run without workers would pay at start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def format_float(x) -> str:
    """Full-precision, reproducible float formatting for CSV cells."""
    if x is None:
        return ""
    return repr(float(x))


def write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")
