"""RPR009 bad fixture: fork-unsafe callables written at the pool entry call."""

import threading
from multiprocessing import Process

from repro.resilience.executor import run_pooled

_PROGRESS = 0


def leaky_worker(cell):
    global _PROGRESS
    _PROGRESS += 1
    return cell


def locked_worker(cell, lock=threading.Lock()):
    with lock:
        return cell


def sweep(chunks, traces, workers):
    run_pooled("functional", lambda c: c, chunks, traces, workers)  # RPR009

    def local_worker(cell):
        return cell

    run_pooled("functional", local_worker, chunks, traces, workers)  # RPR009
    run_pooled("functional", leaky_worker, chunks, traces, workers)  # RPR009
    run_pooled("functional", locked_worker, chunks, traces, workers)  # RPR009
    process = Process(target=lambda: None)  # RPR009
    return process
