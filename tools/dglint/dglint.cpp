#include "dglint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string_view>

#include "semantic.hpp"

namespace dg::lint {
namespace fs = std::filesystem;
namespace {

bool hasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc" ||
         ext == ".cxx";
}

bool readFile(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The one suppression filter: drops every finding an `ok(Rn)` covers,
/// then reports each suppression that covered nothing as a stale R0.
LintResult finish(std::vector<FileSummary>& files) {
  std::vector<Finding> all = linkAndCheck(files);
  std::map<std::string_view, std::vector<Suppression>*> suppressionsOf;
  for (FileSummary& f : files) {
    all.insert(all.end(), f.localFindings.begin(), f.localFindings.end());
    suppressionsOf[f.path] = &f.suppressions;
  }
  sortFindings(all);

  LintResult result;
  result.filesScanned = files.size();
  for (Finding& f : all) {
    bool suppressed = false;
    for (Suppression& s : *suppressionsOf.at(f.path)) {
      if (s.targetLine == f.line && s.rule == f.rule) {
        s.used = true;
        suppressed = true;
        break;
      }
    }
    if (suppressed) {
      ++result.suppressed;
    } else {
      result.findings.push_back(std::move(f));
    }
  }
  for (const FileSummary& f : files) {
    for (const Suppression& s : f.suppressions) {
      if (s.used) continue;
      result.findings.push_back(
          {f.path, s.commentLine, "R0",
           "stale suppression: no " + s.rule + " finding on line " +
               std::to_string(s.targetLine) + "; delete the directive"});
    }
  }
  sortFindings(result.findings);
  return result;
}

}  // namespace

std::vector<std::string> collectSourceFiles(
    const std::string& rootPath, const std::vector<std::string>& paths) {
  const fs::path root = rootPath;
  // Deterministic file list: collect, normalize, sort.
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    const fs::path full = root / p;
    std::error_code ec;
    if (fs::is_directory(full, ec)) {
      for (fs::recursive_directory_iterator it(full, ec), end;
           it != end && !ec; it.increment(ec)) {
        const fs::path& entry = it->path();
        const std::string name = entry.filename().string();
        if (it->is_directory() &&
            (name == ".git" || name.rfind("build", 0) == 0)) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && hasSourceExtension(entry))
          files.push_back(fs::relative(entry, root).generic_string());
      }
    } else if (fs::exists(full, ec)) {
      files.push_back(fs::relative(full, root).generic_string());
    } else {
      std::cerr << "dglint: path not found: " << full.string() << "\n";
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

LintResult analyzeSources(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::vector<FileSummary> files;
  files.reserve(sources.size());
  for (const auto& [relPath, source] : sources)
    files.push_back(summarizeSource(relPath, source));
  return finish(files);
}

LintResult runLint(const std::string& root,
                   const std::vector<std::string>& paths) {
  std::vector<FileSummary> files;
  std::string source;
  for (const std::string& relPath : collectSourceFiles(root, paths)) {
    if (!readFile(fs::path(root) / relPath, source)) {
      std::cerr << "dglint: cannot read " << relPath << "\n";
      continue;
    }
    files.push_back(summarizeSource(relPath, source));
  }
  return finish(files);
}

std::string formatFindings(const std::vector<Finding>& findings,
                           const std::string& format) {
  std::ostringstream out;
  if (format == "sarif") {
    // Minimal SARIF 2.1.0 for GitHub code scanning upload.
    out << "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
        << "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
        << "\"name\":\"dglint\","
        << "\"informationUri\":"
        << "\"https://example.invalid/dgnet/tools/dglint\",\"rules\":[";
    std::vector<std::string> ruleIds;
    for (const Finding& f : findings) {
      if (std::find(ruleIds.begin(), ruleIds.end(), f.rule) == ruleIds.end())
        ruleIds.push_back(f.rule);
    }
    std::sort(ruleIds.begin(), ruleIds.end());
    for (std::size_t i = 0; i < ruleIds.size(); ++i) {
      if (i > 0) out << ',';
      out << "{\"id\":\"" << ruleIds[i] << "\"}";
    }
    out << "]}},\"results\":[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      if (i > 0) out << ',';
      out << "{\"ruleId\":\"" << f.rule << "\",\"level\":\"error\","
          << "\"message\":{\"text\":\"" << jsonEscape(f.message) << "\"},"
          << "\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{"
          << "\"uri\":\"" << jsonEscape(f.path)
          << "\",\"uriBaseId\":\"%SRCROOT%\"},\"region\":{\"startLine\":"
          << f.line << "}}}]}";
    }
    out << "]}]}\n";
    return out.str();
  }
  if (format == "github") {
    for (const Finding& f : findings) {
      out << "::error file=" << f.path << ",line=" << f.line
          << ",title=dglint " << f.rule << "::" << f.message << "\n";
    }
    return out.str();
  }
  for (const Finding& f : findings) {
    out << f.path << ':' << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  return out.str();
}

std::string reportSuppressions(const std::string& root,
                               const std::vector<std::string>& paths) {
  struct Entry {
    std::string path;
    Suppression s;
  };
  std::vector<Entry> all;
  std::string source;
  for (const std::string& relPath : collectSourceFiles(root, paths)) {
    if (!readFile(fs::path(root) / relPath, source)) continue;
    const std::vector<Token> tokens = tokenize(source);
    const std::vector<std::string> lines = splitLines(source);
    const Directives d = parseDirectives(relPath, tokens, lines);
    for (const Suppression& s : d.suppressions) all.push_back({relPath, s});
  }

  std::map<std::string, std::size_t> byRule;
  std::map<std::string, std::size_t> byFile;
  for (const Entry& e : all) {
    ++byRule[e.s.rule];
    ++byFile[e.path];
  }

  // Oldest suppression via git blame (committer time of the directive
  // comment's line). Degrades to "n/a" outside a git checkout or when
  // the tree is too large to blame line by line.
  std::string oldest = "n/a";
  if (!all.empty() && all.size() <= 500) {
    long long oldestEpoch = -1;
    std::string oldestWhere;
    for (const Entry& e : all) {
      std::string cmd = "git -C '" + root + "' blame -L " +
                        std::to_string(e.s.commentLine) + "," +
                        std::to_string(e.s.commentLine) +
                        " --porcelain -- '" + e.path + "' 2>/dev/null";
      FILE* pipe = popen(cmd.c_str(), "r");
      if (pipe == nullptr) break;
      std::string blame;
      char buf[512];
      while (fgets(buf, sizeof buf, pipe) != nullptr) blame += buf;
      pclose(pipe);
      const std::size_t at = blame.find("committer-time ");
      if (at == std::string::npos) continue;
      const long long epoch = std::atoll(blame.c_str() + at + 15);
      if (epoch > 0 && (oldestEpoch < 0 || epoch < oldestEpoch)) {
        oldestEpoch = epoch;
        oldestWhere = e.path + ":" + std::to_string(e.s.commentLine) + " (" +
                      e.s.rule + ")";
      }
    }
    if (oldestEpoch > 0) {
      char date[32];
      const std::time_t t = static_cast<std::time_t>(oldestEpoch);
      std::tm tmBuf{};
      if (gmtime_r(&t, &tmBuf) != nullptr &&
          std::strftime(date, sizeof date, "%Y-%m-%d", &tmBuf) > 0) {
        oldest = oldestWhere + ", committed " + date;
      } else {
        oldest = oldestWhere;
      }
    }
  }

  std::ostringstream out;
  out << "## Suppression debt report\n\n";
  out << "Total: " << all.size() << " suppression"
      << (all.size() == 1 ? "" : "s") << " across " << byFile.size()
      << " file" << (byFile.size() == 1 ? "" : "s") << "\n\n";
  if (!all.empty()) {
    out << "| Rule | Count |\n|---|---|\n";
    for (const auto& [rule, count] : byRule)
      out << "| " << rule << " | " << count << " |\n";
    out << "\n| File | Count |\n|---|---|\n";
    for (const auto& [file, count] : byFile)
      out << "| " << file << " | " << count << " |\n";
    out << "\nOldest suppression: " << oldest << "\n\n";
    out << "<details><summary>All suppressions</summary>\n\n";
    for (const Entry& e : all) {
      out << "- `" << e.path << ":" << e.s.commentLine << "` " << e.s.rule
          << " — " << e.s.reason << "\n";
    }
    out << "\n</details>\n";
  }
  return out.str();
}

int lintMain(int argc, const char* const* argv) {
  std::string root = ".";
  std::vector<std::string> paths;
  std::string format = "text";
  bool suppressionReport = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.starts_with("--root=")) {
      root = arg.substr(7);
    } else if (arg == "--format=text" || arg == "--format=github" ||
               arg == "--format=sarif") {
      format = arg.substr(9);
    } else if (arg == "--report-suppressions") {
      suppressionReport = true;
    } else if (arg.starts_with("-")) {
      std::cerr
          << "dglint: unknown option " << arg << "\n"
          << "usage: dglint [--root=DIR] [--format=text|github|sarif]\n"
          << "              [--report-suppressions] [paths...]\n"
          << "Analyzes src/ and tools/ under --root by default and exits 1\n"
          << "when any unsuppressed finding remains. --report-suppressions\n"
          << "prints a markdown debt report of every suppression instead.\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) paths = {"src", "tools"};

  if (suppressionReport) {
    std::cout << reportSuppressions(root, paths);
    return 0;
  }
  const LintResult result = runLint(root, paths);
  std::cout << formatFindings(result.findings, format);
  std::cerr << "dglint: " << result.filesScanned << " files, "
            << result.findings.size() << " findings, " << result.suppressed
            << " suppressed\n";
  return result.findings.empty() ? 0 : 1;
}

}  // namespace dg::lint
