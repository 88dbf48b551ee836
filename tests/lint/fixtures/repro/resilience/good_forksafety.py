"""RPR009 good fixture: module-level, closure-free worker callables."""

from multiprocessing import Process

from repro.resilience.executor import run_pooled


def pure_worker(cell):
    return cell.value * 2


def sweep(chunks, traces, workers):
    run_pooled("functional", pure_worker, chunks, traces, workers)
    process = Process(target=pure_worker, args=(None,))
    return process
