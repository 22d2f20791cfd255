"""Test-session setup shared by every test module."""

import os
import tempfile

# hypothesis writes a constants cache to its storage directory even with
# database=None; keep it out of the checkout.  This runs at conftest import,
# before any test module can make hypothesis resolve the directory.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "charvar-kam-hypothesis"))
