"""Build hook for the optional compiled kernel module.

The package is pure Python plus one extension holding the hot search
kernels.  It is compiled from rbminor/kernels/_ckernels.pyx when Cython is
installed, and otherwise from the generated _ckernels.c shipped beside it.
With RBMINOR_PURE set the extension is skipped, and the pure-Python twin
in rbminor/kernels/pykernels.py serves every call.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if not os.environ.get("RBMINOR_PURE"):
    try:
        from Cython.Build import cythonize

        ext_modules = cythonize(
            ["src/rbminor/kernels/_ckernels.pyx"],
            language_level=3,
        )
    except ImportError:
        ext_modules = [
            Extension("rbminor.kernels._ckernels", ["src/rbminor/kernels/_ckernels.c"])
        ]

setup(ext_modules=ext_modules)
