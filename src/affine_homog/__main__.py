"""`python -m affine_homog`: the affine-homog command line."""
from .cli import main
main()
