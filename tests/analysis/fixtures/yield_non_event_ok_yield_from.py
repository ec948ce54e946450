"""A plain recursive generator delegating through ``yield from`` is not
a process body, so its non-Event yields are fine."""


def walk(node, depth=0):
    yield depth, node
    for child in node.children:
        yield from walk(child, depth + 1)
