"""The record format shared with the OCaml helper (pb): one header line
"TAG len1 len2 ...\\n" followed by the fields' raw bytes."""


def write(out, tag, fields):
    out.write(tag.encode() + b"".join(b" %d" % len(f) for f in fields) + b"\n")
    for f in fields:
        out.write(f)


def read(path):
    with open(path, "rb") as f:
        data = f.read()
    records, pos = [], 0
    while pos < len(data):
        nl = data.index(b"\n", pos)
        tag, *lens = data[pos:nl].split(b" ")
        pos = nl + 1
        fields = []
        for n in map(int, lens):
            fields.append(data[pos:pos + n])
            pos += n
        records.append((tag.decode(), fields))
    return records
