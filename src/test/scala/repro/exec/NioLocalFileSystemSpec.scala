package repro.exec

import java.nio.file.{Files, Path => JPath}
import java.nio.file.attribute.PosixFilePermissions
import scala.jdk.CollectionConverters._
import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.Path
import org.apache.hadoop.fs.permission.FsPermission
import repro.SparkSpec
import repro.workload.TestData

class NioLocalFileSystemSpec extends SparkSpec {

  private def bits(p: JPath): String = PosixFilePermissions.toString(Files.getPosixFilePermissions(p))
  private def mode(p: JPath): Int = Files.getAttribute(p, "unix:mode").asInstanceOf[Int]

  test("a session built with SparkSettings writes Parquet through NioLocalFileSystem") {
    val conf = spark.sparkContext.hadoopConfiguration
    val dir = TestData.freshOutDir("nio-fs").resolve("t")
    assert(new Path(dir.toUri).getFileSystem(conf).isInstanceOf[NioLocalFileSystem])

    spark.range(0, 100, 1, 2).write.parquet(dir.toString)
    val umask = FsPermission.getUMask(conf)
    val fileBits = FsPermission.getFileDefault.applyUMask(umask).toString
    val dirBits = FsPermission.getDirDefault.applyUMask(umask).toString
    val all = { val s = Files.walk(dir); try s.iterator.asScala.toVector finally s.close() }
    val (dirs, files) = all.partition(Files.isDirectory(_))
    assert(files.exists(_.getFileName.toString.startsWith("part-")))
    files.foreach(f => assert(bits(f) == fileBits, f))
    dirs.foreach(d => assert(bits(d) == dirBits, d))
  }

  test("permissions follow the configured umask, and the sticky bit takes Hadoop's path") {
    val conf = new Configuration(false)
    conf.set("fs.permissions.umask-mode", "027") // not the JVM's umask: the bits below are set, not inherited
    val fs = new NioLocalFileSystem
    val root = TestData.freshOutDir("nio-umask")
    fs.initialize(root.toUri, conf)
    try {
      val dir = root.resolve("d")
      val file = dir.resolve("f")
      assert(fs.mkdirs(new Path(dir.toUri)))
      fs.create(new Path(file.toUri)).close()
      assert(bits(dir) == "rwxr-x---")
      assert(bits(file) == "rw-r-----")

      fs.setPermission(new Path(dir.toUri), new FsPermission("1750"))
      assert((mode(dir) & Integer.parseInt("7777", 8)) == Integer.parseInt("1750", 8))
    } finally fs.close()
  }
}
