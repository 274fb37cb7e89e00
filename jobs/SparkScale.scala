package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.SparkScaleExp

/** spark-submit entrypoint for the distributed scale-out experiment. */
object SparkScale {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("les3-spark-scale")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(SparkScaleExp.render(SparkScaleExp.run(spark)))
    finally spark.stop()
  }
}
