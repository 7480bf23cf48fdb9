// dglint -- determinism & safety analyzer for the dissemination-graphs
// repo. See dglint.hpp for the rule set and DESIGN.md for the rationale.
#include "dglint.hpp"

int main(int argc, char** argv) { return dg::lint::lintMain(argc, argv); }
