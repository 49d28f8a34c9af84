.PHONY: install test acceptance reproduce reproduce-check known-defects check bench-pairs op-times replay-diff replay-check cli-diff

install:
	pip install -e '.[test]' --no-build-isolation

test:
	pytest -q

acceptance:
	pytest tests/test_acceptance.py -v -s

reproduce:
	PYTHONPATH=src python3 -m smdpcheck.reproduce reproduce_report.json

# The reproduce-report test alone; on a mismatch, -vv shows each differing field.
reproduce-check:
	pytest -vv tests/test_acceptance.py::test_reproduce_report_matches_the_committed_one

# Exits 1 while a min/max composite with a Dirac part raises in the paths engine,
# or the two cylinder engines differ by more than 1e-5 on uniform contexts.
known-defects:
	python3 perfbench/known_defects.py --seed 7

# The tier-1 tests, then known-defects.  test_reproduce_report_matches_the_committed_one is the
# "same numbers" gate; reproduce-check runs it alone, with pytest's field-by-field diff.
check:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
	$(MAKE) known-defects

# Paired benchmark runs, working tree against BASE, alternating which runs first:
#   make bench-pairs W=deep-paths SEEDS=631-635 BASE=HEAD
bench-pairs:
	python3 tools/bench_pairs.py --workload $(W) --seeds $(SEEDS) --base $(or $(BASE),HEAD)

# Least CPU time per op key over REPS replays of the first N instances per seed, working
# tree against BASE, alternating which runs first:
#   make op-times W=deep-paths SEEDS=7 N=30 REPS=5 BASE=HEAD
op-times:
	python3 tools/op_times.py --workload $(W) --seeds $(SEEDS) --n $(N) --reps $(or $(REPS),5) --base $(or $(BASE),HEAD)

# Every op result of the first N instances per seed, working tree against BASE, bit for bit:
#   make replay-diff W=anomaly-audit SEEDS=1-3 N=800 BASE=HEAD
replay-diff:
	python3 tools/replay_diff.py --workload $(W) --seeds $(SEEDS) --n $(N) --base $(or $(BASE),HEAD)

# replay-diff over the replay set (ft-sweep seeds 7, 11, 12 at N = 117, deep-paths seed 7
# at N = 60, anomaly-audit seeds 7, 11 at N = 300); exits 1 if any op differs or is wrong:
#   make replay-check BASE=HEAD
replay-check:
	@status=0; \
	for run in "ft-sweep 7,11,12 117" "deep-paths 7 60" "anomaly-audit 7,11 300"; do \
		set -- $$run; \
		python3 tools/replay_diff.py --workload $$1 --seeds $$2 --n $$3 --base $(or $(BASE),HEAD) || status=1; \
	done; \
	exit $$status

# Output, exit code and written files of every case in tools/cli_diff.py, working tree against BASE:
#   make cli-diff BASE=HEAD
cli-diff:
	python3 tools/cli_diff.py --base $(or $(BASE),HEAD)
