#include "directives.hpp"

#include <algorithm>

namespace dg::lint {
namespace {

std::size_t tokenEndLine(const Token& t) {
  return t.endLine >= t.line ? t.endLine : t.line;
}

/// Splits `verb: reason`; returns false when there is no colon.
bool splitReason(const std::string& directive, std::size_t from,
                 std::string& reason) {
  const std::size_t colon = directive.find(':', from);
  if (colon == std::string::npos) return false;
  reason = trim(directive.substr(colon + 1));
  return true;
}

}  // namespace

bool lineInSetup(const Directives& directives, std::size_t line) {
  for (const SetupRange& r : directives.setupRanges) {
    if (line >= r.beginLine && line <= r.endLine) return true;
  }
  return false;
}

Directives parseDirectives(const std::string& relPath,
                           const std::vector<Token>& tokens,
                           const std::vector<std::string>& lines) {
  Directives out;

  // Line occupancy: lines that carry at least one code token. Decides
  // whether a directive comment is "alone on its line" (targets the next
  // line) or trails code (targets its own line). Multi-line tokens (raw
  // strings) occupy every line they span, so text that merely *looks*
  // like a comment inside one cannot flip the decision.
  std::vector<char> occupied(lines.size() + 2, 0);
  // Preprocessor logical lines: map every physical line of a continued
  // directive to the directive's first line (where findings anchor).
  std::vector<std::size_t> preprocStart(lines.size() + 2, 0);
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::Comment) continue;
    const std::size_t end = std::min(tokenEndLine(t), lines.size() + 1);
    for (std::size_t l = t.line; l <= end; ++l) {
      occupied[l] = 1;
      if (t.kind == TokenKind::Preprocessor) preprocStart[l] = t.line;
    }
  }

  const auto targetOf = [&](const Token& t) -> std::size_t {
    if (t.line < preprocStart.size() && preprocStart[t.line] != 0)
      return preprocStart[t.line];
    std::size_t target = t.line;
    // A comment alone on its line targets the next code-occupied line,
    // skipping any further comment-only lines (so a directive may carry
    // a multi-line justification above the line it governs).
    while (target < occupied.size() - 1 && !occupied[target]) ++target;
    if (target < preprocStart.size() && preprocStart[target] != 0)
      return preprocStart[target];
    return target;
  };

  std::vector<std::size_t> setupStack;  // open `setup begin` lines
  for (const Token& t : tokens) {
    if (t.kind != TokenKind::Comment) continue;
    const std::string text = trim(t.text);
    bool isCheck = false;
    std::string directive;
    if (text.rfind("dglint:", 0) == 0) {
      directive = trim(text.substr(7));
    } else if (text.rfind("dgcheck:", 0) == 0) {
      directive = trim(text.substr(8));
      isCheck = true;
    } else {
      continue;
    }
    const char* prefix = isCheck ? "dgcheck" : "dglint";

    std::string rule;
    std::string reason;
    bool haveReason = false;
    if (directive.rfind("ordered-ok", 0) == 0) {
      rule = "R2";
      haveReason = splitReason(directive, 0, reason);
    } else if (directive.rfind("fp-merge-ok", 0) == 0) {
      rule = "R4";
      haveReason = splitReason(directive, 0, reason);
    } else if (directive.rfind("ok(", 0) == 0) {
      const std::size_t close = directive.find(')');
      if (close != std::string::npos) {
        rule = trim(directive.substr(3, close - 3));
        haveReason = splitReason(directive, close, reason);
      }
    } else if (isCheck && directive == "hot") {
      out.hotLines.push_back(targetOf(t));
      continue;
    } else if (isCheck && directive == "worker") {
      out.workerLines.push_back(targetOf(t));
      continue;
    } else if (isCheck && directive.rfind("cold", 0) == 0) {
      if (!splitReason(directive, 0, reason) || reason.empty()) {
        out.malformed.push_back(
            {relPath, t.line, "R0",
             "dgcheck cold annotation is missing its justification; "
             "write `// dgcheck: cold: <why traversal may stop here>`"});
        continue;
      }
      out.coldLines.push_back(targetOf(t));
      continue;
    } else if (isCheck && directive.rfind("setup", 0) == 0) {
      const std::string which = trim(directive.substr(5));
      if (which == "begin") {
        setupStack.push_back(t.line);
      } else if (which == "end") {
        if (setupStack.empty()) {
          out.malformed.push_back(
              {relPath, t.line, "R0",
               "`dgcheck: setup end` without a matching `setup begin`"});
        } else {
          out.setupRanges.push_back({setupStack.back(), t.line});
          setupStack.pop_back();
        }
      } else {
        out.malformed.push_back(
            {relPath, t.line, "R0",
             "unrecognized dgcheck setup directive '" + directive +
                 "'; expected `setup begin` or `setup end`"});
      }
      continue;
    } else {
      out.malformed.push_back(
          {relPath, t.line, "R0",
           std::string("unrecognized ") + prefix + " directive '" +
               directive + "'; expected ok(Rn): <why>, ordered-ok: <why>, "
               "fp-merge-ok: <why>" +
               (isCheck ? ", hot, worker, cold: <why> or setup begin/end"
                        : "")});
      continue;
    }

    const auto& ids = allRuleIds();
    if (rule.empty() || std::find(ids.begin(), ids.end(), rule) == ids.end()) {
      out.malformed.push_back(
          {relPath, t.line, "R0",
           std::string(prefix) + " suppression names unknown rule '" + rule +
               "'"});
      continue;
    }
    if (!haveReason || reason.empty()) {
      out.malformed.push_back(
          {relPath, t.line, "R0",
           std::string(prefix) + " suppression for " + rule +
               " is missing its justification; write `// " + prefix +
               ": ...: <why this is safe>`"});
      continue;
    }
    out.suppressions.push_back({targetOf(t), t.line, rule, reason, false});
  }
  for (const std::size_t openLine : setupStack) {
    out.malformed.push_back(
        {relPath, openLine, "R0",
         "`dgcheck: setup begin` is never closed with `setup end`"});
  }
  std::sort(out.setupRanges.begin(), out.setupRanges.end(),
            [](const SetupRange& a, const SetupRange& b) {
              return a.beginLine < b.beginLine;
            });
  return out;
}

}  // namespace dg::lint
