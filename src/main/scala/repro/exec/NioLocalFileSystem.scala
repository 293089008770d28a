package repro.exec

import java.nio.file.Files
import java.nio.file.attribute.PosixFilePermissions
import org.apache.hadoop.fs.{LocalFileSystem, Path, RawLocalFileSystem}
import org.apache.hadoop.fs.permission.FsPermission

/** Hadoop's checksummed local file system (`file:`), with permissions set
  * through `java.nio`.
  *
  * Without the native libhadoop, `RawLocalFileSystem.setPermission` forks a
  * `chmod` process, and a Parquet write sets the permission of every
  * directory and file it creates. This file system sets the same POSIX bits
  * in-process. `Controller.SparkSettings` registers it for `file:`.
  */
final class NioLocalFileSystem extends LocalFileSystem(new NioLocalFileSystem.Raw)

object NioLocalFileSystem {

  /** The raw local file system; only `setPermission` differs. */
  final class Raw extends RawLocalFileSystem {
    /** Sets the user, group and other bits with `java.nio`; without the
      * sticky bit, `FsPermission.toString` is the `rwxr-x---` form nio
      * parses. The sticky bit, which nio cannot express, and file stores
      * without POSIX attributes take Hadoop's own path.
      */
    override def setPermission(p: Path, permission: FsPermission): Unit =
      if (permission.getStickyBit) super.setPermission(p, permission)
      else {
        val bits = PosixFilePermissions.fromString(permission.toString)
        try Files.setPosixFilePermissions(pathToFile(p).toPath, bits)
        catch { case _: UnsupportedOperationException => super.setPermission(p, permission) }
      }
  }
}
