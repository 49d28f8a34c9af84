.PHONY: install test acceptance reproduce

install:
	pip install -e . --no-build-isolation

test:
	pytest -q

acceptance:
	pytest tests/test_acceptance.py -v -s

reproduce:
	PYTHONPATH=src python3 -m smdpcheck.reproduce reproduce_report.json
