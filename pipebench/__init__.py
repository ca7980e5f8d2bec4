"""Pipeline benchmark for crowdreg; see README.md."""
