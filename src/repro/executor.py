"""The prologue every executor entry point runs before its kernel."""
import sys
import zipimport


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
