"""The prologue every executor entry point runs before its kernel.

It takes two fixed waits off each Python task. ``quick_ack`` sends the
worker's ACK of the JVM's command at once; Nagle's algorithm holds the
JVM's next write ~40 ms for it. ``gc.freeze()`` spares the ~47k objects
alive as a task starts (mostly imports) from ``pyspark.daemon``'s full
collection after each task (25-80 ms). Epilogues only evict importers:
a freeze there would pin the kernel's garbage. Missing facilities are
skipped.
"""
import gc
import os
import socket
import sys
import zipimport


def prologue() -> None:
    quick_ack()
    gc.freeze()
    evict_zip_importers()


def quick_ack() -> None:
    """Set ``TCP_QUICKACK`` on each TCP socket in ``/proc/self/fd``,
    skipping ``AF_UNIX`` ones; no descriptor is opened or closed."""
    opt = getattr(socket, "TCP_QUICKACK", None)
    fd_dir = "/proc/self/fd"
    for fd in os.listdir(fd_dir) if opt and os.path.isdir(fd_dir) else []:
        try:
            sock = socket.socket(fileno=int(fd))
        except OSError:  # not a socket, or the listing's own descriptor
            continue
        try:
            if sock.family in (socket.AF_INET, socket.AF_INET6):
                sock.setsockopt(socket.IPPROTO_TCP, opt, 1)
        except OSError:  # a UDP socket
            pass
        finally:
            sock.detach()  # the descriptor stays open, owned by its user


def evict_zip_importers() -> None:
    """Drop the zip importers from ``sys.path_importer_cache``.

    PySpark's worker calls ``importlib.invalidate_caches()`` before each
    task, and CPython 3.11's ``zipimporter.invalidate_caches`` re-reads
    its whole archive directory at once: ~27k entries, 0.1-0.3 s a task
    over ``pyspark.zip``, py4j and the Spark jar. An import rebuilds an
    evicted importer from ``zipimport``'s directory cache, unread.
    """
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            sys.path_importer_cache.pop(path, None)
