// Present so that its ALLOW key in ../allow.txt is live.
