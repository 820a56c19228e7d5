"""The shipped data files: the default arm and the default parts list."""

#: Arms the quantities of ``default_bom.csv`` cover, and the batch
#: ``bom.load_bom``, ``bom.default_bom`` and ``armkit bom`` take by default.
#: It lives here, beside the file it describes, so the CLI's parser reads
#: it without importing ``bom`` (about 13 ms of ``csv``, ``decimal`` and
#: ``fractions`` on a 2-core host) on every call.
BOM_BATCH_SIZE = 25
