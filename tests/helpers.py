"""Helpers that only tests need."""

from sumprobe.generate import EntityAssignment
from sumprobe.templates import DocumentTemplate


def identity_assignments(template: DocumentTemplate) -> list[EntityAssignment]:
    """Assignments that keep every entity's original name and gender."""
    return [
        EntityAssignment(
            entity=e.id,
            group=e.original_gender or "unknown",
            gender=e.original_gender or "male",
            first=e.first or "",
            last=e.last,
        )
        for e in template.entities
    ]
