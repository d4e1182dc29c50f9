#include "io/model_io.h"

#include <algorithm>
#include <limits>

#include "common/csv.h"
#include "io/csv_reader.h"

namespace slade {

namespace {

Status CheckHeader(const std::vector<std::vector<std::string>>& rows,
                   const std::vector<std::string>& expected,
                   const std::string& what) {
  if (rows.empty()) {
    return Status::InvalidArgument(what + ": empty file");
  }
  if (rows.front() != expected) {
    std::string want;
    for (size_t i = 0; i < expected.size(); ++i) {
      want += (i ? "," : "") + expected[i];
    }
    return Status::InvalidArgument(what + ": expected header '" + want +
                                   "'");
  }
  return Status::OK();
}

// Cardinalities, copies and task ids are 32-bit fields; a wider value
// must be rejected, not wrapped into a different plan or profile.
Result<uint32_t> ParseUint32(const std::string& cell, const std::string& path,
                             size_t row) {
  SLADE_ASSIGN_OR_RETURN(uint64_t value, ParseUint(cell));
  if (value > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(path + ": row " + std::to_string(row) +
                                   ": " + cell + " does not fit 32 bits");
  }
  return static_cast<uint32_t>(value);
}

}  // namespace

Result<BinProfile> LoadBinProfileCsv(const std::string& path) {
  SLADE_ASSIGN_OR_RETURN(auto rows, ReadCsvFile(path));
  SLADE_RETURN_NOT_OK(
      CheckHeader(rows, {"cardinality", "confidence", "cost"}, path));
  std::vector<TaskBin> bins;
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != 3) {
      return Status::InvalidArgument(path + ": row " + std::to_string(r) +
                                     " needs 3 cells");
    }
    TaskBin bin;
    SLADE_ASSIGN_OR_RETURN(bin.cardinality, ParseUint32(rows[r][0], path, r));
    SLADE_ASSIGN_OR_RETURN(bin.confidence, ParseDouble(rows[r][1]));
    SLADE_ASSIGN_OR_RETURN(bin.cost, ParseDouble(rows[r][2]));
    bins.push_back(bin);
  }
  std::sort(bins.begin(), bins.end(),
            [](const TaskBin& a, const TaskBin& b) {
              return a.cardinality < b.cardinality;
            });
  return BinProfile::Create(std::move(bins));
}

Status SaveBinProfileCsv(const BinProfile& profile,
                         const std::string& path) {
  CsvWriter writer;
  SLADE_RETURN_NOT_OK(
      writer.Open(path, {"cardinality", "confidence", "cost"}));
  char buf[64];
  for (uint32_t l = 1; l <= profile.max_cardinality(); ++l) {
    const TaskBin& bin = profile.bin(l);
    std::vector<std::string> cells;
    cells.push_back(std::to_string(l));
    std::snprintf(buf, sizeof(buf), "%.10g", bin.confidence);
    cells.emplace_back(buf);
    std::snprintf(buf, sizeof(buf), "%.10g", bin.cost);
    cells.emplace_back(buf);
    SLADE_RETURN_NOT_OK(writer.WriteRow(cells));
  }
  return writer.Close();
}

Result<CrowdsourcingTask> LoadThresholdsCsv(const std::string& path) {
  SLADE_ASSIGN_OR_RETURN(auto rows, ReadCsvFile(path));
  SLADE_RETURN_NOT_OK(CheckHeader(rows, {"threshold"}, path));
  std::vector<double> thresholds;
  thresholds.reserve(rows.size() - 1);
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != 1) {
      return Status::InvalidArgument(path + ": row " + std::to_string(r) +
                                     " needs 1 cell");
    }
    SLADE_ASSIGN_OR_RETURN(double t, ParseDouble(rows[r][0]));
    thresholds.push_back(t);
  }
  return CrowdsourcingTask::FromThresholds(std::move(thresholds));
}

Status SaveThresholdsCsv(const CrowdsourcingTask& task,
                         const std::string& path) {
  CsvWriter writer;
  SLADE_RETURN_NOT_OK(writer.Open(path, {"threshold"}));
  char buf[64];
  for (size_t i = 0; i < task.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.10g",
                  task.threshold(static_cast<TaskId>(i)));
    SLADE_RETURN_NOT_OK(
        writer.WriteRow(std::vector<std::string>{buf}));
  }
  return writer.Close();
}

Result<std::vector<CrowdsourcingTask>> LoadBatchWorkloadCsv(
    const std::string& path) {
  SLADE_ASSIGN_OR_RETURN(auto rows, ReadCsvFile(path));
  SLADE_RETURN_NOT_OK(CheckHeader(rows, {"task", "threshold"}, path));
  std::vector<CrowdsourcingTask> tasks;
  std::vector<double> current;
  uint64_t current_index = 0;
  auto flush = [&]() -> Status {
    if (current.empty()) return Status::OK();
    auto task = CrowdsourcingTask::FromThresholds(std::move(current));
    if (!task.ok()) return task.status();
    tasks.push_back(std::move(task).ValueOrDie());
    current.clear();
    return Status::OK();
  };
  bool seen_any = false;
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != 2) {
      return Status::InvalidArgument(path + ": row " + std::to_string(r) +
                                     " needs 2 cells");
    }
    SLADE_ASSIGN_OR_RETURN(uint64_t index, ParseUint(rows[r][0]));
    SLADE_ASSIGN_OR_RETURN(double threshold, ParseDouble(rows[r][1]));
    if (!seen_any) {
      if (index != 0) {
        return Status::InvalidArgument(path + ": first task index must be 0");
      }
      seen_any = true;
    } else if (index == current_index + 1) {
      SLADE_RETURN_NOT_OK(flush());
      current_index = index;
    } else if (index != current_index) {
      return Status::InvalidArgument(
          path + ": row " + std::to_string(r) + ": task index " +
          std::to_string(index) + " after " + std::to_string(current_index) +
          " (indices must start at 0 and increase by at most 1)");
    }
    current.push_back(threshold);
  }
  SLADE_RETURN_NOT_OK(flush());
  if (tasks.empty()) {
    return Status::InvalidArgument(path + ": empty workload");
  }
  return tasks;
}

Status SaveBatchWorkloadCsv(const std::vector<CrowdsourcingTask>& tasks,
                            const std::string& path) {
  CsvWriter writer;
  SLADE_RETURN_NOT_OK(writer.Open(path, {"task", "threshold"}));
  char buf[64];
  for (size_t k = 0; k < tasks.size(); ++k) {
    for (size_t i = 0; i < tasks[k].size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.10g",
                    tasks[k].threshold(static_cast<TaskId>(i)));
      SLADE_RETURN_NOT_OK(writer.WriteRow(
          std::vector<std::string>{std::to_string(k), buf}));
    }
  }
  return writer.Close();
}

Result<std::vector<TimedSubmission>> LoadTimedWorkloadCsv(
    const std::string& path) {
  SLADE_ASSIGN_OR_RETURN(auto rows, ReadCsvFile(path));
  SLADE_RETURN_NOT_OK(CheckHeader(
      rows, {"arrival_ms", "requester", "task", "threshold"}, path));

  std::vector<TimedSubmission> submissions;
  // State of the submission being accumulated.
  std::vector<std::vector<double>> tasks;  // per-task thresholds
  double arrival_ms = 0.0;
  std::string requester;
  bool open = false;

  auto flush = [&]() -> Status {
    if (!open) return Status::OK();
    TimedSubmission submission;
    submission.arrival_ms = arrival_ms;
    submission.requester = requester;
    for (std::vector<double>& thresholds : tasks) {
      auto task = CrowdsourcingTask::FromThresholds(std::move(thresholds));
      if (!task.ok()) return task.status();
      submission.tasks.push_back(std::move(task).ValueOrDie());
    }
    submissions.push_back(std::move(submission));
    tasks.clear();
    open = false;
    return Status::OK();
  };

  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != 4) {
      return Status::InvalidArgument(path + ": row " + std::to_string(r) +
                                     " needs 4 cells");
    }
    SLADE_ASSIGN_OR_RETURN(double ms, ParseDouble(rows[r][0]));
    const std::string& who = rows[r][1];
    SLADE_ASSIGN_OR_RETURN(uint64_t index, ParseUint(rows[r][2]));
    SLADE_ASSIGN_OR_RETURN(double threshold, ParseDouble(rows[r][3]));

    if (open && (ms != arrival_ms || who != requester)) {
      if (ms < arrival_ms) {
        return Status::InvalidArgument(
            path + ": row " + std::to_string(r) + ": arrival_ms " +
            std::to_string(ms) + " decreases (previous " +
            std::to_string(arrival_ms) + ")");
      }
      SLADE_RETURN_NOT_OK(flush());
    }
    if (!open) {
      arrival_ms = ms;
      requester = who;
      open = true;
    }
    // The batch-workload indexing rule, per submission: indices start at 0
    // and increase by at most 1, so consecutive rows are unambiguous.
    if (index > tasks.size()) {
      return Status::InvalidArgument(
          path + ": row " + std::to_string(r) + ": task index " +
          std::to_string(index) + " skips ahead (submission has " +
          std::to_string(tasks.size()) + " tasks so far)");
    }
    if (tasks.size() > 0 && index + 1 < tasks.size()) {
      return Status::InvalidArgument(
          path + ": row " + std::to_string(r) + ": task index " +
          std::to_string(index) +
          " goes backwards within a submission (use a new arrival_ms or "
          "requester for a new submission)");
    }
    if (index == tasks.size()) tasks.emplace_back();
    tasks.back().push_back(threshold);
  }
  SLADE_RETURN_NOT_OK(flush());
  if (submissions.empty()) {
    return Status::InvalidArgument(path + ": empty timed workload");
  }
  return submissions;
}

Status SaveTimedWorkloadCsv(const std::vector<TimedSubmission>& submissions,
                            const std::string& path) {
  CsvWriter writer;
  SLADE_RETURN_NOT_OK(
      writer.Open(path, {"arrival_ms", "requester", "task", "threshold"}));
  char buf[64];
  for (size_t s = 0; s < submissions.size(); ++s) {
    const TimedSubmission& submission = submissions[s];
    // The format keys submission boundaries on (arrival_ms, requester)
    // changing between consecutive rows, so adjacent submissions sharing
    // both would merge (or fail to parse) on reload. Refuse rather than
    // corrupt the round trip.
    if (s > 0 && submissions[s - 1].arrival_ms == submission.arrival_ms &&
        submissions[s - 1].requester == submission.requester) {
      return Status::InvalidArgument(
          path + ": submissions " + std::to_string(s - 1) + " and " +
          std::to_string(s) + " share arrival_ms and requester '" +
          submission.requester +
          "'; the CSV format cannot separate them -- nudge one arrival_ms");
    }
    char ms[64];
    std::snprintf(ms, sizeof(ms), "%.10g", submission.arrival_ms);
    for (size_t k = 0; k < submission.tasks.size(); ++k) {
      const CrowdsourcingTask& task = submission.tasks[k];
      for (size_t i = 0; i < task.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.10g",
                      task.threshold(static_cast<TaskId>(i)));
        SLADE_RETURN_NOT_OK(writer.WriteRow(std::vector<std::string>{
            ms, submission.requester, std::to_string(k), buf}));
      }
    }
  }
  return writer.Close();
}

Status SavePlanCsv(const DecompositionPlan& plan, const std::string& path) {
  CsvWriter writer;
  SLADE_RETURN_NOT_OK(writer.Open(path, {"cardinality", "copies", "tasks"}));
  for (size_t pi = 0; pi < plan.num_placements(); ++pi) {
    const DecompositionPlan::PlacementView p = plan.view(pi);
    std::string tasks;
    for (uint32_t i = 0; i < p.num_tasks; ++i) {
      tasks += (i ? ";" : "") + std::to_string(p.tasks[i]);
    }
    SLADE_RETURN_NOT_OK(writer.WriteRow(std::vector<std::string>{
        std::to_string(p.cardinality), std::to_string(p.copies), tasks}));
  }
  return writer.Close();
}

Result<DecompositionPlan> LoadPlanCsv(const std::string& path) {
  SLADE_ASSIGN_OR_RETURN(auto rows, ReadCsvFile(path));
  SLADE_RETURN_NOT_OK(
      CheckHeader(rows, {"cardinality", "copies", "tasks"}, path));
  DecompositionPlan plan;
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != 3) {
      return Status::InvalidArgument(path + ": row " + std::to_string(r) +
                                     " needs 3 cells");
    }
    SLADE_ASSIGN_OR_RETURN(uint32_t cardinality,
                           ParseUint32(rows[r][0], path, r));
    SLADE_ASSIGN_OR_RETURN(uint32_t copies, ParseUint32(rows[r][1], path, r));
    std::vector<TaskId> tasks;
    const std::string& joined = rows[r][2];
    size_t start = 0;
    while (start < joined.size()) {
      size_t semi = joined.find(';', start);
      if (semi == std::string::npos) semi = joined.size();
      SLADE_ASSIGN_OR_RETURN(
          TaskId id,
          ParseUint32(joined.substr(start, semi - start), path, r));
      tasks.push_back(id);
      start = semi + 1;
    }
    plan.Add(cardinality, copies, tasks);
  }
  return plan;
}

}  // namespace slade
