"""One fork path for every parallel job: a file's shards and a study's replications."""

import os
import pickle
import signal


def _fork(task):
    """(pid, read end of a pipe) of a forked worker that runs task() and
    sends back (True, its result) or (False, its exception), pickled; an
    exception that unpickling cannot rebuild goes as a RuntimeError naming it."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the worker never returns or unwinds into its caller's frames
        try:
            os.close(read)
            try:
                payload = (True, task())
            except BaseException as exc:  # raised again by the parent
                payload = (False, exc)
                try:
                    pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
                except Exception:
                    payload = (False, RuntimeError(f"{type(exc).__name__}: {exc}"))
            with open(write, "wb") as pipe:
                pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write)
    return pid, read


def fork_map(fn, items) -> list:
    """[fn(item) for item in items]: the caller runs fn(items[0]), forked
    workers the others, so one item forks nothing.  The first exception in
    item order is raised.  Workers whose result was not read are killed;
    every worker is reaped before this returns or raises.
    """
    workers = []  # (pid, read end) per forked item, in item order
    sent = 0  # how many of them, from the first, had their result read
    try:
        for item in items[1:]:
            workers.append(_fork(lambda item=item: fn(item)))
        results = [fn(items[0])]
        for pid, read in workers:
            with open(read, "rb", closefd=False) as pipe:
                try:
                    ok, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(f"worker {pid} exited without a result") from None
            sent += 1
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for i, (pid, read) in enumerate(workers):
            os.close(read)
            if i >= sent:  # unread; one that was read is bound for os._exit
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
