"""``python -m armkit``: the same command line as the ``armkit`` script."""
if __name__ == "__main__":
    from .cli import main
    main()
