/**
 * @file
 * Process-unique staging names for atomic tmp + fsync + rename writes,
 * and the matching startup sweep.
 *
 * Several processes may share one store directory (two daemons, a sweep
 * next to a tournament).  A fixed `<path>.tmp` lets two writers clobber
 * each other's staging file, and a recovery pass that unlinks every
 * `*.tmp` can delete a live sibling's in-flight write.  Staging names
 * therefore carry the writer's pid (`<path>.<pid>.<seq>.tmp`), and
 * recovery removes only tmps whose writer is gone.
 */

#ifndef RC_COMMON_TMPFILE_HH
#define RC_COMMON_TMPFILE_HH

#include <string>

namespace rc
{

/** `<path>.<pid>.<seq>.tmp`: unique per process and per call. */
std::string uniqueTmpPath(const std::string &path);

/**
 * Can the writer of the staging file named @p name (a directory entry,
 * no path) still be running?  The writer pid is the first of the
 * all-digit dot components just before `.tmp`; a name without one
 * comes from a writer that predates pid-unique names and is treated as
 * gone.  A pid that is alive (or belongs to another user) counts as
 * running.
 */
bool tmpWriterAlive(const std::string &name);

/** Unlink every `*.tmp` in @p dir whose writer is gone (see
 *  tmpWriterAlive()); others' in-flight writes are left alone. */
void sweepDeadTmps(const std::string &dir);

} // namespace rc

#endif // RC_COMMON_TMPFILE_HH
