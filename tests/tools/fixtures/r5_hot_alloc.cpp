// R5 fixture: zero-alloc hot paths. hotAlloc trips every allocation
// class dglint recognizes; hotClean shows the sanctioned escape
// hatches (setup region, reserve-before-push, workspace reuse).
#include <cstdlib>
#include <vector>

namespace fixture {

struct Workspace {
  std::vector<int> scratch;
};

// dgcheck: hot
int hotAlloc(Workspace& ws) {
  std::vector<int> locals;  // local allocating container
  locals.push_back(1);      // push_back without reserve
  int* raw = new int(3);    // operator new
  void* mem = std::malloc(8);
  std::free(mem);
  const int r = *raw + locals[0] + static_cast<int>(ws.scratch.size());
  delete raw;
  return r;
}

// dgcheck: hot
int hotClean(Workspace& ws) {
  // dgcheck: setup begin
  std::vector<int> table;
  table.push_back(1);
  // dgcheck: setup end
  ws.scratch.reserve(16);
  ws.scratch.push_back(2);  // reserve() in the same function
  return ws.scratch.back() + table[0];
}

}  // namespace fixture
