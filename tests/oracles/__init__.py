"""Reference implementations the production engines are checked against.

Nothing under ``src/`` imports these modules (``tests/test_oracle_boundary.py``
checks it): they exist so equivalence tests and benchmark baselines
compare the engines with an independent, deliberately simple computation
of the same answer.
"""
